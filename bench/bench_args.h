// The command line of the table benches: "--jobs=N", "--seed=S", "--csv".
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "src/core/parse.h"

namespace pjsched::bench {

struct Args {
  std::size_t jobs = 0;
  std::uint64_t seed = 42;
  bool csv = false;
};

/// Parses argv, with `default_jobs` for an absent --jobs; anything else, or
/// a count that is not a whole unsigned number, is rejected with a usage
/// message (exit 2).
inline Args parse_args(int argc, char** argv, std::size_t default_jobs) {
  Args args;
  args.jobs = default_jobs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg.rfind("--jobs=", 0) == 0) {
        args.jobs = core::parse_unsigned<std::size_t>(arg.substr(7));
      } else if (arg.rfind("--seed=", 0) == 0) {
        args.seed = core::parse_unsigned<std::uint64_t>(arg.substr(7));
      } else if (arg == "--csv") {
        args.csv = true;
      } else {
        throw std::invalid_argument(arg);
      }
    } catch (const std::invalid_argument&) {
      std::cerr << "usage: " << argv[0] << " [--jobs=N] [--seed=S] [--csv]\n";
      std::exit(2);
    }
  }
  return args;
}

}  // namespace pjsched::bench
