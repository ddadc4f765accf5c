#include "core/contention_detection.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "core/algorithm_registry.h"
#include "core/bounds.h"

namespace cfc {

Task<void> detector_driver(ProcessContext& ctx, Detector& d, int slot) {
  ctx.set_section(Section::Working);
  co_await d.detect(ctx, slot);
  ctx.set_section(Section::Done);
}

std::unique_ptr<Detector> setup_detection(Sim& sim, const DetectorFactory& make,
                                          int n) {
  if (sim.process_count() != 0) {
    throw std::invalid_argument("setup_detection requires an empty sim");
  }
  std::unique_ptr<Detector> det = make(sim.memory(), n);
  for (int slot = 0; slot < n; ++slot) {
    Detector* d = det.get();
    std::string name = "d";
    name += std::to_string(slot);
    sim.spawn(std::move(name),
              [d, slot](ProcessContext& ctx) {
                return detector_driver(ctx, *d, slot);
              });
  }
  return det;
}

int count_winners(const Sim& sim) {
  int winners = 0;
  for (Pid p = 0; p < sim.process_count(); ++p) {
    if (sim.status(p) == ProcStatus::Done) {
      const std::optional<int> out = sim.output(p);
      if (!out.has_value()) {
        throw std::logic_error("terminated detector process has no output");
      }
      winners += (*out == 1) ? 1 : 0;
    }
  }
  return winners;
}

namespace {

/// Bits needed for 0-based ids 0..n-1, at least 1.
int id_bits(int n) {
  const int b = bounds::ceil_log2(static_cast<std::uint64_t>(n));
  return b < 1 ? 1 : b;
}

}  // namespace

SplitterTree::SplitterTree(RegisterFile& mem, int n, int l) : n_(n), l_(l) {
  if (n < 1) {
    throw std::invalid_argument("splitter tree needs n >= 1");
  }
  if (l < 1 || l > RegisterFile::kMaxWidth) {
    throw std::invalid_argument("splitter tree atomicity out of range");
  }
  d_ = bounds::ceil_div(id_bits(n), l);
  // Allocate the trie nodes actually reachable by ids 0..n-1.
  for (int id = 0; id < n; ++id) {
    for (int level = 0; level < d_; ++level) {
      const Value prefix = prefix_at(static_cast<Value>(id), level);
      const auto key = std::make_pair(level, prefix);
      if (nodes_.count(key) > 0) {
        continue;
      }
      const std::string tag =
          "splitter.L" + std::to_string(level) + "." + std::to_string(prefix);
      Node node;
      node.x = mem.add_register(tag + ".x", l);
      node.y = mem.add_bit(tag + ".y");
      nodes_.emplace(key, node);
    }
  }
}

Value SplitterTree::chunk_at(Value id, int level) const {
  const unsigned shift = static_cast<unsigned>((d_ - 1 - level) * l_);
  const Value mask =
      (l_ >= RegisterFile::kMaxWidth) ? ~Value{0} : ((Value{1} << l_) - 1);
  return (id >> shift) & mask;
}

Value SplitterTree::prefix_at(Value id, int level) const {
  const int shift_chunks = d_ - level;
  const unsigned shift = static_cast<unsigned>(shift_chunks * l_);
  return shift >= 64 ? 0 : (id >> shift);
}

Task<void> SplitterTree::detect(ProcessContext& ctx, int slot) {
  const auto id = static_cast<Value>(slot);
  // Climb from the deepest node (level d-1) to the root (level 0), running
  // one splitter per node with the node-local value chunk_at(id, level).
  for (int level = d_ - 1; level >= 0; --level) {
    const Node node = nodes_.at({level, prefix_at(id, level)});
    const Value c = chunk_at(id, level);
    co_await ctx.write(node.x, c);
    if (co_await ctx.read(node.y) != 0) {
      ctx.set_output(0);
      co_return;
    }
    co_await ctx.write(node.y, 1);
    if (co_await ctx.read(node.x) != c) {
      ctx.set_output(0);
      co_return;
    }
  }
  ctx.set_output(1);
}

std::string SplitterTree::algorithm_name() const {
  return "splitter-tree(l=" + std::to_string(l_) + ")";
}

DetectorFactory SplitterTree::factory(int l) {
  return [l](RegisterFile& mem, int n) {
    return std::make_unique<SplitterTree>(mem, n, l);
  };
}

DetectorFactory SplitterTree::factory_full_width() {
  return [](RegisterFile& mem, int n) {
    return std::make_unique<SplitterTree>(mem, n, id_bits(n));
  };
}

SelfishDetector::SelfishDetector(RegisterFile& mem, int n) : n_(n) {
  if (n < 1) {
    throw std::invalid_argument("detector needs n >= 1");
  }
  own_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    own_.push_back(mem.add_bit("selfish.b" + std::to_string(i)));
  }
}

Task<void> SelfishDetector::detect(ProcessContext& ctx, int slot) {
  const RegId mine = own_[static_cast<std::size_t>(slot)];
  co_await ctx.write(mine, 1);
  // Reads only its own register: Lemma 2's condition fails for every pair,
  // so the merge adversary can hide two processes from each other.
  const Value seen = co_await ctx.read(mine);
  ctx.set_output(seen != 0 ? 1 : 0);
}

DetectorFactory SelfishDetector::factory() {
  return [](RegisterFile& mem, int n) {
    return std::make_unique<SelfishDetector>(mem, n);
  };
}

namespace {
/// The direct detectors of the Section 2.6 remark, at the atomicities the
/// benches sweep. (SelfishDetector is deliberately broken and therefore
/// not registered: registry enumeration only yields correct algorithms.)
const struct SplitterTreeRegistrar {
  SplitterTreeRegistrar() {
    for (const int l : {1, 2, 4}) {
      AlgorithmRegistry::instance().add_detector(
          AlgorithmInfo::named("splitter-tree-l" + std::to_string(l))
              .desc("splitter trie of arity 2^l: worst-case step "
                    "complexity 4*ceil(log n / l), bounded")
              .atomicity(l)
              .tag("splitter"),
          SplitterTree::factory(l));
    }
    AlgorithmRegistry::instance().add_detector(
        AlgorithmInfo::named("splitter-tree-full")
            .desc("single-level splitter at atomicity ceil(log2 n): "
                  "Lamport's fast path as a contention detector")
            .tag("splitter"),
        SplitterTree::factory_full_width());
  }
} kSplitterTreeRegistrar;
}  // namespace

}  // namespace cfc
