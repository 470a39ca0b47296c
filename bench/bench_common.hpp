#pragma once

// Shared plumbing for the experiment binaries (bench/): banner printing and
// the standard workloads. Every binary runs standalone with no arguments
// and prints paper-style markdown tables. The committed results live in
// BENCH_congest.json, BENCH_serve.json and BENCH_scale.json at the
// repository root; the end-to-end benchmark and its workloads are described
// in perfbench/README.md.

#include <iostream>
#include <string>

#include "graph/generators.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace usne::bench {

inline void banner(const std::string& id, const std::string& claim) {
  std::cout << "\n==========================================================\n"
            << id << "\n" << claim << "\n"
            << "==========================================================\n";
}

inline void note(const std::string& text) { std::cout << text << "\n"; }

}  // namespace usne::bench
