#include "matgen/suite.hpp"

#include "util/error.hpp"

namespace spmvm {

namespace {
PaperRef ref_dlr1() { return {278502, 144.0, 17.5, 12.9, 12.9}; }
PaperRef ref_dlr2() { return {541980, 315.0, 48.0, 9.6, 9.5}; }
PaperRef ref_hmep() { return {6201600, 15.0, 36.0, 7.9, 7.5}; }
PaperRef ref_samg() { return {3405035, 7.0, 68.4, 7.8, 8.5}; }
PaperRef ref_uhbr() { return {4485000, 123.0, -1.0, -1.0, -1.0}; }
}  // namespace

NamedMatrix make_named(const std::string& name, double scale,
                       std::uint64_t seed) {
  GenConfig cfg;
  cfg.scale = scale;
  cfg.seed = seed;
  if (name == "DLR1") return {name, make_dlr1<double>(cfg), ref_dlr1()};
  if (name == "DLR2") return {name, make_dlr2<double>(cfg), ref_dlr2()};
  if (name == "HMEp") return {name, make_hmep<double>(cfg), ref_hmep()};
  if (name == "sAMG") return {name, make_samg<double>(cfg), ref_samg()};
  if (name == "UHBR") return {name, make_uhbr<double>(cfg), ref_uhbr()};
  SPMVM_REQUIRE(false, "unknown matrix name: " + name);
  return {};
}

}  // namespace spmvm
