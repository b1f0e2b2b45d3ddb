#include "spans.hh"

#include <cstring>
#include <stdexcept>

namespace simbench {

int
Tracer::open(const char *name, std::int64_t start)
{
    const int parent = stack_.empty() ? -1 : stack_.back().span;
    spans_.push_back({name, start, start, 0, 1, parent, cell_});
    const int id = int(spans_.size() - 1);
    stack_.push_back({id, {}});
    return id;
}

void
Tracer::close(int id, std::int64_t end)
{
    if (stack_.empty() || stack_.back().span != id)
        throw std::logic_error("span closed out of nesting order");
    stack_.pop_back();
    Span &s = spans_[std::size_t(id)];
    s.end = end;
    s.busy = end - s.start;
}

void
Tracer::aggregate(const char *name, std::int64_t start, std::int64_t end)
{
    if (!enabled_)
        return;
    int idx = -1;
    if (!stack_.empty()) {
        for (const auto &[n, i] : stack_.back().aggregates) {
            if (std::strcmp(n, name) == 0) {
                idx = i;
                break;
            }
        }
    }
    if (idx < 0) {
        const int parent = stack_.empty() ? -1 : stack_.back().span;
        spans_.push_back({name, start, end, 0, 0, parent, cell_});
        idx = int(spans_.size() - 1);
        if (!stack_.empty())
            stack_.back().aggregates.emplace_back(name, idx);
    }
    Span &s = spans_[std::size_t(idx)];
    s.end = end;
    s.busy += end - start;
    ++s.calls;
}

std::vector<std::int64_t>
Tracer::selfNs() const
{
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].busy;
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            self[std::size_t(s.parent)] -= s.busy;
    }
    return self;
}

std::map<std::string, std::int64_t>
Tracer::selfTimes() const
{
    const std::vector<std::int64_t> self = selfNs();
    std::map<std::string, std::int64_t> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += self[i];
    return out;
}

void
Tracer::write(std::ostream &os) const
{
    const std::vector<std::int64_t> self = selfNs();
    os << "index\tname\tstart_ns\tend_ns\tbusy_ns\tcalls\tparent\tcell"
          "\tself_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << i << '\t' << s.name << '\t' << s.start << '\t' << s.end
           << '\t' << s.busy << '\t' << s.calls << '\t' << s.parent
           << '\t' << s.cell << '\t' << self[i] << '\n';
    }
}

} // namespace simbench
