#pragma once

// Compact per-run trace: the internal currency between a scenario run and
// the sweep aggregator.
//
// A scenario emits text — figure-header/CHECK/NOTE commentary interleaved
// with one CSV table.  RunTrace::parse_text() strips the commentary and
// splits the header and every data row into cells exactly once, in the
// worker thread that ran the scenario; the aggregator then reads rows and
// cells as string_views without ever re-scanning for newlines or commas.
//
// The same structure has a length-prefixed binary encoding (u32 cell
// lengths, no separators, no escaping rules) for carrying a trace across a
// process or file boundary.  The sweep itself never encodes: traces stay
// parsed in memory from worker to fold, and sweep state files persist the
// per-point accumulators (analysis/summary's serialization) instead.
//
// Cells never contain ',' or '\n' (they are produced by splitting on those
// characters), so joining a row's cells with ',' reproduces the original
// line byte-for-byte; round-tripping through the binary encoding is exact.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tfmcc {

class RunTrace {
 public:
  /// True for the text a scenario interleaves with its CSV trace: the
  /// figure header, CHECK/NOTE lines, and blank lines.  Everything else is
  /// CSV (header first, then rows).
  static bool is_commentary(std::string_view line);

  /// Parses a scenario's captured text output: commentary lines are
  /// dropped, the first remaining line becomes the header, the rest the
  /// data rows.  An output with no CSV at all yields an empty trace
  /// (has_header() false).  Never fails: any text is some trace.
  static RunTrace parse_text(std::string_view text);

  bool has_header() const { return has_header_; }
  /// The header line, cells joined with ','; empty when has_header() is
  /// false.
  std::string header_line() const { return join_row(0); }
  std::size_t header_cells() const {
    return has_header_ ? row_size(0) : 0;
  }

  /// Data rows (the header is not a row).
  std::size_t n_rows() const {
    return has_header_ ? row_end_.size() - 1 : 0;
  }
  /// Cell count of data row `r`.
  std::size_t row_size(std::size_t r) const;
  /// Cell `c` of data row `r` as a view into the trace's buffer.
  std::string_view cell(std::size_t r, std::size_t c) const;
  /// Data row `r` re-joined with ',' — byte-identical to the line the
  /// scenario emitted.
  std::string row_line(std::size_t r) const {
    return join_row(r + (has_header_ ? 1 : 0));
  }
  /// Data row `r` as owned cells, the shape ColumnSummary::add_row takes.
  std::vector<std::string> row_cells(std::size_t r) const;

  /// Appends the length-prefixed binary encoding to `out`.
  void encode(std::string& out) const;
  /// Decodes a blob produced by encode().  Returns false (with a
  /// diagnostic in `err`) on a truncated or malformed blob.
  static bool decode(std::string_view blob, RunTrace& out, std::string& err);

  bool operator==(const RunTrace& o) const = default;

 private:
  // Row 0 is the header (when present); data rows follow.  All cells are
  // concatenated into buf_; cell_end_[i] is the exclusive end offset of
  // cell i, row_end_[r] the exclusive end index (into cell_end_) of row r.
  std::string join_row(std::size_t raw_row) const;
  void push_line(std::string_view line);

  bool has_header_{false};
  std::string buf_;
  std::vector<std::uint32_t> cell_end_;
  std::vector<std::uint32_t> row_end_;
};

}  // namespace tfmcc
