#include "sparse/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "util/error.hpp"

namespace spmvm {

namespace {
std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// Blank lines and '%' comments may appear anywhere after the banner.
bool blank_or_comment(const std::string& line) {
  const auto first = line.find_first_not_of(" \t\r\v\f");
  return first == std::string::npos || line[first] == '%';
}
}  // namespace

template <class T>
Csr<T> read_matrix_market(std::istream& in) {
  std::string line;
  SPMVM_REQUIRE(static_cast<bool>(std::getline(in, line)), "empty stream");
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  SPMVM_REQUIRE(banner == "%%MatrixMarket", "missing MatrixMarket banner");
  SPMVM_REQUIRE(lower(object) == "matrix", "only 'matrix' objects supported");
  SPMVM_REQUIRE(lower(format) == "coordinate",
                "only coordinate format supported");
  field = lower(field);
  symmetry = lower(symmetry);
  SPMVM_REQUIRE(field == "real" || field == "integer" || field == "pattern",
                "unsupported field type: " + field);
  SPMVM_REQUIRE(symmetry == "general" || symmetry == "symmetric" ||
                    symmetry == "skew-symmetric",
                "unsupported symmetry: " + symmetry);

  // Sizes and indices are range-checked as read, before any narrowing to
  // index_t or any allocation.
  bool have_size = false;
  while (!have_size && std::getline(in, line))
    have_size = !blank_or_comment(line);
  SPMVM_REQUIRE(have_size, "missing size line");
  std::istringstream size_line(line);
  long long rows = 0, cols = 0, entries = 0;
  SPMVM_REQUIRE(static_cast<bool>(size_line >> rows >> cols >> entries),
                "malformed size line");
  constexpr long long kMaxDim = std::numeric_limits<index_t>::max();
  SPMVM_REQUIRE(rows >= 0 && rows <= kMaxDim && cols >= 0 && cols <= kMaxDim,
                "matrix dimensions outside [0, 2^31 - 1]: " + line);
  // rows·cols <= (2^31 - 1)^2 cannot overflow, nor can twice the count.
  SPMVM_REQUIRE(entries >= 0 && entries <= rows * cols,
                "entry count outside [0, rows * cols]: " + line);
  SPMVM_REQUIRE(symmetry == "general" || rows == cols,
                symmetry + " matrix must be square");

  Coo<T> coo(static_cast<index_t>(rows), static_cast<index_t>(cols));
  // The count is only a promise until the entries arrive: cap what it
  // may allocate up front.
  constexpr long long kMaxReserve = 1LL << 24;
  coo.reserve(std::min(symmetry == "general" ? entries : 2 * entries,
                       kMaxReserve));
  for (long long k = 0; k < entries;) {
    SPMVM_REQUIRE(static_cast<bool>(std::getline(in, line)),
                  "unexpected end of file in entry list");
    if (blank_or_comment(line)) continue;
    ++k;
    std::istringstream ls(line);
    long long r = 0, c = 0;
    double v = 1.0;
    ls >> r >> c;
    SPMVM_REQUIRE(!ls.fail(), "malformed entry line");
    if (field != "pattern") {
      ls >> v;
      SPMVM_REQUIRE(!ls.fail(), "malformed value");
    }
    SPMVM_REQUIRE(r >= 1 && r <= rows && c >= 1 && c <= cols,
                  "entry index outside the matrix: " + line);
    const auto i = static_cast<index_t>(r - 1);
    const auto j = static_cast<index_t>(c - 1);
    coo.add(i, j, static_cast<T>(v));
    if (i != j) {
      if (symmetry == "symmetric") coo.add(j, i, static_cast<T>(v));
      if (symmetry == "skew-symmetric") coo.add(j, i, static_cast<T>(-v));
    }
  }
  while (std::getline(in, line))
    SPMVM_REQUIRE(blank_or_comment(line),
                  "more entries than the size line declares: " + line);
  return Csr<T>::from_coo(std::move(coo));
}

template <class T>
Csr<T> read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  SPMVM_REQUIRE(in.good(), "cannot open file: " + path);
  return read_matrix_market<T>(in);
}

template <class T>
void write_matrix_market(std::ostream& out, const Csr<T>& a) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << "% written by pjds_spmvm\n";
  out << a.n_rows << " " << a.n_cols << " " << a.nnz() << "\n";
  out.precision(17);
  for (index_t i = 0; i < a.n_rows; ++i)
    for (offset_t k = a.row_ptr[static_cast<std::size_t>(i)];
         k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k)
      out << (i + 1) << " " << (a.col_idx[static_cast<std::size_t>(k)] + 1)
          << " " << a.val[static_cast<std::size_t>(k)] << "\n";
}

template <class T>
void write_matrix_market_file(const std::string& path, const Csr<T>& a) {
  std::ofstream out(path);
  SPMVM_REQUIRE(out.good(), "cannot open file for writing: " + path);
  write_matrix_market(out, a);
}

template Csr<float> read_matrix_market(std::istream&);
template Csr<double> read_matrix_market(std::istream&);
template Csr<float> read_matrix_market_file(const std::string&);
template Csr<double> read_matrix_market_file(const std::string&);
template void write_matrix_market(std::ostream&, const Csr<float>&);
template void write_matrix_market(std::ostream&, const Csr<double>&);
template void write_matrix_market_file(const std::string&, const Csr<float>&);
template void write_matrix_market_file(const std::string&, const Csr<double>&);

}  // namespace spmvm
