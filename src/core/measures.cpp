#include "core/measures.h"

#include <algorithm>
#include <ostream>
#include <set>

namespace cfc {

ComplexityReport ComplexityReport::plus(const ComplexityReport& o) const {
  ComplexityReport r;
  r.steps = steps + o.steps;
  r.registers = registers + o.registers;
  r.read_steps = read_steps + o.read_steps;
  r.write_steps = write_steps + o.write_steps;
  r.read_registers = read_registers + o.read_registers;
  r.write_registers = write_registers + o.write_registers;
  r.atomicity = std::max(atomicity, o.atomicity);
  r.truncated = truncated || o.truncated;
  return r;
}

std::ostream& operator<<(std::ostream& os, const ComplexityReport& r) {
  return os << "{steps=" << r.steps << ", registers=" << r.registers
            << ", reads=" << r.read_steps << ", writes=" << r.write_steps
            << ", atomicity=" << r.atomicity
            << (r.truncated ? ", truncated" : "") << "}";
}

ComplexityReport measure(const Trace& trace, Pid pid, SeqRange window) {
  ComplexityReport rep;
  std::set<RegId> regs;
  std::set<RegId> read_regs;
  std::set<RegId> write_regs;
  for (const TraceEvent& ev : trace.events()) {
    if (ev.seq < window.begin || ev.seq >= window.end) {
      continue;
    }
    if (ev.kind != TraceEvent::Kind::Access || ev.pid != pid) {
      continue;
    }
    const Access& a = ev.access;
    rep.steps += 1;
    regs.insert(a.reg);
    if (a.is_read()) {
      rep.read_steps += 1;
      read_regs.insert(a.reg);
    }
    if (a.is_write()) {
      rep.write_steps += 1;
      write_regs.insert(a.reg);
    }
    rep.atomicity = std::max(rep.atomicity, a.width);
  }
  rep.registers = static_cast<int>(regs.size());
  rep.read_registers = static_cast<int>(read_regs.size());
  rep.write_registers = static_cast<int>(write_regs.size());
  return rep;
}

ComplexityReport measure_all(const Trace& trace, Pid pid) {
  return measure(trace, pid, SeqRange{0, trace.next_seq()});
}

namespace {

/// Replays section changes, invoking `fn(seq_of_event, pid, from, to)` for
/// each transition in order.
template <class Fn>
void replay_sections(const Trace& trace, Fn&& fn) {
  for (const TraceEvent& ev : trace.events()) {
    if (ev.kind == TraceEvent::Kind::SectionChange) {
      fn(ev.seq, ev.pid, ev.from, ev.to);
    }
  }
}

}  // namespace

std::vector<SeqRange> contention_free_sessions(const Trace& trace, Pid pid,
                                               int nprocs) {
  std::vector<SeqRange> out;
  std::vector<Section> section(static_cast<std::size_t>(nprocs),
                               Section::Remainder);
  bool in_window = false;
  bool window_clean = false;
  Seq window_begin = 0;

  auto others_in_remainder = [&]() {
    for (int q = 0; q < nprocs; ++q) {
      if (q != pid && section[static_cast<std::size_t>(q)] !=
                          Section::Remainder) {
        return false;
      }
    }
    return true;
  };

  replay_sections(trace, [&](Seq seq, Pid p, Section /*from*/, Section to) {
    if (p == pid) {
      if (to == Section::Entry && !in_window) {
        in_window = true;
        window_clean = others_in_remainder();
        window_begin = seq;
      } else if (to == Section::Remainder && in_window) {
        if (window_clean && others_in_remainder()) {
          out.push_back(SeqRange{window_begin, seq + 1});
        }
        in_window = false;
      }
    } else {
      if (to != Section::Remainder && in_window) {
        window_clean = false;  // interference: not a contention-free session
      }
      section[static_cast<std::size_t>(p)] = to;
    }
  });
  return out;
}

std::vector<SeqRange> clean_entry_windows(const Trace& trace, Pid pid,
                                          int nprocs) {
  std::vector<SeqRange> out;
  std::vector<Section> section(static_cast<std::size_t>(nprocs),
                               Section::Remainder);
  bool in_window = false;
  bool window_clean = false;
  Seq window_begin = 0;

  auto nobody_in_cs_or_exit = [&]() {
    for (int q = 0; q < nprocs; ++q) {
      const Section s = section[static_cast<std::size_t>(q)];
      if (s == Section::Critical || s == Section::Exit) {
        return false;
      }
    }
    return true;
  };

  replay_sections(trace, [&](Seq seq, Pid p, Section /*from*/, Section to) {
    if (p == pid && to == Section::Entry) {
      section[static_cast<std::size_t>(p)] = to;
      in_window = true;
      window_begin = seq;
      window_clean = nobody_in_cs_or_exit();
      return;
    }
    if (p == pid && to == Section::Critical && in_window) {
      if (window_clean) {
        out.push_back(SeqRange{window_begin, seq});
      }
      in_window = false;
      section[static_cast<std::size_t>(p)] = to;
      return;
    }
    section[static_cast<std::size_t>(p)] = to;
    if (in_window && (to == Section::Critical || to == Section::Exit)) {
      window_clean = false;  // someone reached CS/exit inside the window
    }
  });
  return out;
}

std::vector<SeqRange> exit_windows(const Trace& trace, Pid pid) {
  std::vector<SeqRange> out;
  bool in_window = false;
  Seq window_begin = 0;
  replay_sections(trace, [&](Seq seq, Pid p, Section from, Section to) {
    if (p != pid) {
      return;
    }
    if (from == Section::Critical && to == Section::Exit) {
      in_window = true;
      window_begin = seq;
    } else if (to == Section::Remainder && in_window) {
      out.push_back(SeqRange{window_begin, seq + 1});
      in_window = false;
    }
  });
  return out;
}

ComplexityReport max_over_windows(const Trace& trace, Pid pid,
                                  const std::vector<SeqRange>& windows) {
  ComplexityReport best;
  for (const SeqRange& w : windows) {
    best = best.max_with(measure(trace, pid, w));
  }
  return best;
}

}  // namespace cfc
