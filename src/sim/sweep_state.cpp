#include "sim/sweep_state.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#endif

namespace tfmcc {

namespace {

constexpr std::string_view kMagic = "TFMCC-SWEEP-CKPT";
// Version 2 added the progress header (heartbeat + folded/owned counts) the
// campaign supervisor polls for liveness; version 3 the failed-point list.
// Version 2 files still load: they were only ever written before any point
// failed, so their failed list is empty.
constexpr int kFormatVersion = 3;
constexpr int kOldestReadableVersion = 2;
constexpr int kManifestVersion = 2;

std::string stats_spelling(const std::vector<summary::Stat>& stats) {
  std::string s;
  for (summary::Stat st : stats) {
    if (!s.empty()) s += ',';
    s += summary::stat_name(st);
  }
  return s;
}

std::string join_cells(const std::vector<std::string>& cells) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) line += ',';
    line += cells[i];
  }
  return line;
}

/// Hex bitmap, 4 tasks per character, bit t%4 of nibble t/4.
std::string encode_bitmap(const std::vector<char>& bits) {
  static const char hex[] = "0123456789abcdef";
  std::string out((bits.size() + 3) / 4, '0');
  for (std::size_t t = 0; t < bits.size(); ++t) {
    if (bits[t] != 0) {
      const std::size_t i = t / 4;
      const int nibble = (out[i] >= 'a' ? out[i] - 'a' + 10 : out[i] - '0') |
                         (1 << (t % 4));
      out[i] = hex[nibble];
    }
  }
  return out;
}

bool decode_bitmap(const std::string& text, std::size_t n,
                   std::vector<char>& bits) {
  if (text.size() != (n + 3) / 4) return false;
  bits.assign(n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    const char c = text[t / 4];
    int nibble;
    if (c >= '0' && c <= '9') {
      nibble = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      nibble = c - 'a' + 10;
    } else {
      return false;
    }
    bits[t] = static_cast<char>((nibble >> (t % 4)) & 1);
  }
  return true;
}

bool expect_token(std::istream& is, std::string_view want) {
  std::string tok;
  return (is >> tok) && tok == want;
}

/// Tasks the manifest's shard owns: round-robin point ownership times the
/// replicate count.
std::uint64_t owned_task_count(const SweepManifest& m) {
  const std::size_t n = m.n_points();
  const std::size_t c = static_cast<std::size_t>(m.shard_count);
  const std::size_t i = static_cast<std::size_t>(m.shard_index);
  const std::size_t owned_points = n > i ? (n - 1 - i) / c + 1 : 0;
  return static_cast<std::uint64_t>(owned_points) *
         static_cast<std::uint64_t>(m.replicate);
}

std::uint64_t count_set(const std::vector<char>& bits) {
  std::uint64_t n = 0;
  for (char b : bits) n += b != 0;
  return n;
}

/// Reads the magic, format version and progress header every state file
/// opens with.  Returns false with a diagnostic in `err`.
bool read_preamble(std::istream& is, int& version, CheckpointProgress& p,
                   std::string& err) {
  std::string magic;
  if (!(is >> magic) || magic != kMagic) {
    err = "not a sweep checkpoint (bad magic)";
    return false;
  }
  if (!(is >> version) || version < kOldestReadableVersion ||
      version > kFormatVersion) {
    err = "unsupported sweep state version";
    return false;
  }
  if (!expect_token(is, "progress") || !(is >> p.heartbeat) ||
      !(is >> p.folded_tasks) || !(is >> p.owned_tasks)) {
    err = "truncated or malformed checkpoint progress header";
    return false;
  }
  return true;
}

}  // namespace

SweepManifest SweepManifest::from(const Scenario& scenario,
                                  const SweepOptions& sweep) {
  SweepManifest m;
  m.scenario = scenario.name;
  m.axes = sweep.axes;
  m.replicate = sweep.replicate;
  m.stats = sweep.stats;
  if (sweep.base.duration.has_value()) {
    m.duration_ns = sweep.base.duration->count_nanos();
  }
  m.seed = sweep.base.seed;
  for (const auto& [k, v] : sweep.base.params()) m.params.emplace_back(k, v);
  m.shard_index = sweep.shard_index;
  m.shard_count = sweep.shard_count;
  return m;
}

std::size_t SweepManifest::n_points() const {
  std::size_t n = 1;
  for (const auto& axis : axes) n *= axis.values.size();
  return n;
}

void SweepManifest::save(std::ostream& os) const {
  os << "manifest " << kManifestVersion << '\n';
  os << "scenario ";
  summary::write_str(os, scenario);
  os << "\nduration ";
  if (duration_ns.has_value()) {
    os << *duration_ns;
  } else {
    os << 'u';
  }
  os << "\nseed ";
  if (seed.has_value()) {
    os << *seed;
  } else {
    os << 'u';
  }
  os << "\nreplicate " << replicate << "\nstats ";
  summary::write_str(os, stats_spelling(stats));
  os << "\nshard " << shard_index << ' ' << shard_count;
  os << "\nparams " << params.size() << '\n';
  for (const auto& [k, v] : params) {
    summary::write_str(os, k);
    summary::write_str(os, v);
    os << '\n';
  }
  os << "axes " << axes.size() << '\n';
  for (const auto& axis : axes) {
    summary::write_str(os, axis.key);
    os << ' ' << axis.values.size() << ' ';
    for (const auto& v : axis.values) summary::write_str(os, v);
    os << '\n';
  }
}

bool SweepManifest::load(std::istream& is, SweepManifest& out,
                         std::string& err) {
  out = SweepManifest{};
  err = "truncated or malformed manifest";
  int version = 0;
  if (!expect_token(is, "manifest") || !(is >> version) ||
      version != kManifestVersion) {
    err = "unsupported manifest version";
    return false;
  }
  if (!expect_token(is, "scenario") || !summary::read_str(is, out.scenario)) {
    return false;
  }
  std::string tok;
  if (!expect_token(is, "duration") || !(is >> tok)) return false;
  if (tok != "u") {
    try {
      out.duration_ns = std::stoll(tok);
    } catch (...) {
      return false;
    }
  }
  if (!expect_token(is, "seed") || !(is >> tok)) return false;
  if (tok != "u") {
    try {
      out.seed = std::stoull(tok);
    } catch (...) {
      return false;
    }
  }
  if (!expect_token(is, "replicate") || !(is >> out.replicate) ||
      out.replicate < 1) {
    return false;
  }
  std::string stats_text;
  if (!expect_token(is, "stats") || !summary::read_str(is, stats_text)) {
    return false;
  }
  std::ostringstream sink;
  if (!summary::parse_stats(stats_text, out.stats, sink)) return false;
  if (!expect_token(is, "shard") || !(is >> out.shard_index) ||
      !(is >> out.shard_count) || out.shard_count < 1 ||
      out.shard_index < 0 || out.shard_index >= out.shard_count) {
    return false;
  }
  std::size_t n_params = 0;
  if (!expect_token(is, "params") || !(is >> n_params) ||
      n_params > (1u << 20)) {
    return false;
  }
  for (std::size_t i = 0; i < n_params; ++i) {
    std::string k, v;
    if (!summary::read_str(is, k) || !summary::read_str(is, v)) return false;
    out.params.emplace_back(std::move(k), std::move(v));
  }
  std::size_t n_axes = 0;
  if (!expect_token(is, "axes") || !(is >> n_axes) || n_axes > 1024) {
    return false;
  }
  for (std::size_t a = 0; a < n_axes; ++a) {
    SweepAxis axis;
    std::size_t n_values = 0;
    if (!summary::read_str(is, axis.key) || !(is >> n_values) ||
        n_values > 1'000'000) {
      return false;
    }
    axis.values.resize(n_values);
    for (auto& v : axis.values) {
      if (!summary::read_str(is, v)) return false;
    }
    out.axes.push_back(std::move(axis));
  }
  err.clear();
  return true;
}

bool SweepManifest::matches(const SweepManifest& other, bool ignore_shard_index,
                            std::string_view what, std::ostream& err) const {
  auto fail = [&](std::string_view field, const std::string& recorded,
                  const std::string& current) {
    err << "error: " << what << " does not match this sweep: " << field
        << " was " << recorded << " when it was written but is " << current
        << " now\n";
    return false;
  };
  if (scenario != other.scenario) {
    return fail("scenario", "'" + scenario + "'", "'" + other.scenario + "'");
  }
  if (axes.size() != other.axes.size()) {
    return fail("sweep grid", std::to_string(axes.size()) + " axes",
                std::to_string(other.axes.size()) + " axes");
  }
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (axes[a].key != other.axes[a].key) {
      return fail("sweep grid", "axis '" + axes[a].key + "'",
                  "axis '" + other.axes[a].key + "'");
    }
    if (axes[a].values != other.axes[a].values) {
      return fail("sweep grid",
                  "axis '" + axes[a].key + "' with " +
                      std::to_string(axes[a].values.size()) + " value(s)",
                  "an axis with " +
                      std::to_string(other.axes[a].values.size()) +
                      " different value(s)");
    }
  }
  if (replicate != other.replicate) {
    return fail("--replicate", std::to_string(replicate),
                std::to_string(other.replicate));
  }
  if (stats != other.stats) {
    return fail("--stats", stats_spelling(stats),
                stats_spelling(other.stats));
  }
  if (duration_ns != other.duration_ns) {
    auto spell = [](const std::optional<std::int64_t>& d) {
      return d.has_value() ? std::to_string(*d) + "ns" : std::string{"unset"};
    };
    return fail("--duration", spell(duration_ns), spell(other.duration_ns));
  }
  if (seed != other.seed) {
    auto spell = [](const std::optional<std::uint64_t>& s) {
      return s.has_value() ? std::to_string(*s) : std::string{"unset"};
    };
    return fail("--seed", spell(seed), spell(other.seed));
  }
  if (params != other.params) {
    return fail("--set overrides", std::to_string(params.size()) + " keys",
                std::to_string(other.params.size()) + " keys");
  }
  if (shard_count != other.shard_count) {
    return fail("shard count", std::to_string(shard_count),
                std::to_string(other.shard_count));
  }
  if (!ignore_shard_index && shard_index != other.shard_index) {
    return fail("shard index", std::to_string(shard_index),
                std::to_string(other.shard_index));
  }
  return true;
}

bool shard_owns_point(const SweepManifest& m, std::size_t point) {
  return point % static_cast<std::size_t>(m.shard_count) ==
         static_cast<std::size_t>(m.shard_index);
}

void SweepStateFile::save(std::ostream& os) const {
  os << kMagic << ' ' << kFormatVersion << '\n';
  // Line 2, before the manifest: the poll-cheap liveness header.
  os << "progress " << heartbeat << ' ' << count_set(folded) << ' '
     << owned_task_count(manifest) << '\n';
  manifest.save(os);
  os << "header ";
  summary::write_str(os, header);
  os << "\nfolded " << folded.size() << ' ' << encode_bitmap(folded)
     << "\nfailed " << failed.size();
  for (std::size_t p : failed) os << ' ' << p;
  os << "\npoints " << points.size() << '\n';
  for (const auto& [idx, state] : points) {
    os << "point " << idx << '\n';
    state.save(os);
  }
  os << "end\n";
}

bool SweepStateFile::load(std::istream& is, SweepStateFile& out,
                          std::string& err) {
  out = SweepStateFile{};
  int version = 0;
  CheckpointProgress claimed;
  if (!read_preamble(is, version, claimed, err)) return false;
  out.heartbeat = claimed.heartbeat;
  if (!SweepManifest::load(is, out.manifest, err)) return false;
  err = "truncated or malformed sweep state";
  if (!expect_token(is, "header") || !summary::read_str(is, out.header)) {
    return false;
  }
  const std::size_t n_tasks = out.manifest.n_tasks();
  const std::size_t n_points = out.manifest.n_points();
  std::size_t n = 0;
  std::string bitmap;
  if (!expect_token(is, "folded") || !(is >> n) || n != n_tasks ||
      !(is >> bitmap) || !decode_bitmap(bitmap, n, out.folded)) {
    return false;
  }
  // The progress header is derived state; a disagreement with the bitmap
  // or manifest marks a hand-edited or corrupt file.
  if (claimed.folded_tasks != count_set(out.folded) ||
      claimed.owned_tasks != owned_task_count(out.manifest)) {
    err = "checkpoint progress header disagrees with the folded bitmap";
    return false;
  }
  // The fold is strictly in task order over the shard's owned tasks, so
  // the bitmap must be a prefix of that sequence: a set bit after a
  // cleared owned bit (or any bit on an unowned task) marks corruption.
  bool gap = false;
  for (std::size_t t = 0; t < n_tasks; ++t) {
    const std::size_t point =
        t / static_cast<std::size_t>(out.manifest.replicate);
    if (!shard_owns_point(out.manifest, point)) {
      if (out.folded[t] != 0) {
        err = "checkpoint marks a task its shard does not own";
        return false;
      }
      continue;
    }
    if (out.folded[t] != 0 && gap) {
      err = "checkpoint bitmap is not a prefix of the fold order";
      return false;
    }
    if (out.folded[t] == 0) gap = true;
  }
  // Every point index — failed or with state — appears at most once and
  // belongs to the file's shard.
  std::set<std::size_t> seen;
  auto valid_point = [&](std::size_t idx) {
    return idx < n_points && shard_owns_point(out.manifest, idx) &&
           seen.insert(idx).second;
  };
  std::size_t n_failed = 0;
  if (version >= 3 &&
      (!expect_token(is, "failed") || !(is >> n_failed) ||
       n_failed > n_points)) {
    return false;
  }
  for (std::size_t i = 0; i < n_failed; ++i) {
    std::size_t idx = 0;
    if (!(is >> idx) || !valid_point(idx)) return false;
    out.failed.push_back(idx);
  }
  std::size_t n_states = 0;
  if (!expect_token(is, "points") || !(is >> n_states) ||
      n_states > n_points) {
    return false;
  }
  const std::vector<std::string> columns = summary::split_csv(out.header);
  for (std::size_t i = 0; i < n_states; ++i) {
    std::size_t idx = 0;
    if (!expect_token(is, "point") || !(is >> idx) || !valid_point(idx)) {
      return false;
    }
    summary::ColumnSummary state{{}};
    std::string state_err;
    if (!summary::ColumnSummary::load(is, state, state_err)) {
      err = state_err;
      return false;
    }
    if (out.header.empty() || state.columns() != columns) {
      err = "point state disagrees with the recorded CSV header";
      return false;
    }
    out.points.emplace_back(idx, std::move(state));
  }
  if (!expect_token(is, "end")) return false;
  err.clear();
  return true;
}

namespace {

#if defined(__unix__) || defined(__APPLE__)
/// fsyncs one path (a file, or a directory so a just-renamed entry is
/// durable).  Returns false on open/fsync failure.
bool fsync_path(const std::string& path, bool directory) {
  const int flags = directory ? O_RDONLY
#ifdef O_DIRECTORY
                                    | O_DIRECTORY
#endif
                              : O_WRONLY;
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}
#endif

}  // namespace

bool save_state_file_atomic(const SweepStateFile& state,
                            const std::string& path, std::ostream& err) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os{tmp, std::ios::binary | std::ios::trunc};
    if (!os) {
      err << "error: cannot open '" << tmp << "' for writing\n";
      return false;
    }
    state.save(os);
    os.flush();
    if (!os) {
      err << "error: failed writing '" << tmp << "'\n";
      return false;
    }
  }
#if defined(__unix__) || defined(__APPLE__)
  // Durability, not just atomicity: without the fsync a machine crash after
  // the rename could expose a zero-length or torn file under the final name
  // (the rename can reach disk before the data does); without the directory
  // fsync the rename itself may be lost, silently reviving a stale
  // checkpoint.  SIGKILL alone never needed this — power loss does.
  if (!fsync_path(tmp, /*directory=*/false)) {
    err << "error: cannot fsync '" << tmp << "'\n";
    return false;
  }
#endif
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    err << "error: cannot rename '" << tmp << "' to '" << path << "'\n";
    return false;
  }
#if defined(__unix__) || defined(__APPLE__)
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string{"."} : path.substr(0, slash);
  if (!fsync_path(dir.empty() ? std::string{"/"} : dir, /*directory=*/true)) {
    err << "error: cannot fsync directory of '" << path << "'\n";
    return false;
  }
#endif
  return true;
}

bool read_checkpoint_progress(const std::string& path, CheckpointProgress& out,
                              std::string& err) {
  out = CheckpointProgress{};
  std::ifstream is{path, std::ios::binary};
  if (!is) {
    err = "cannot open '" + path + "'";
    return false;
  }
  int version = 0;
  if (!read_preamble(is, version, out, err)) {
    err = "'" + path + "': " + err;
    return false;
  }
  err.clear();
  return true;
}

bool load_state_file(const std::string& path, SweepStateFile& out,
                     std::ostream& err) {
  std::ifstream is{path, std::ios::binary};
  if (!is) {
    err << "error: cannot open '" << path << "'\n";
    return false;
  }
  std::string why;
  if (!SweepStateFile::load(is, out, why)) {
    err << "error: cannot load '" << path << "': " << why << '\n';
    return false;
  }
  return true;
}

namespace {

enum PointStatus : char { kComplete, kUnfinished, kFailed };

/// The missing-point rule, parallel to the grid: a point the state's shard
/// owns is complete only when every one of its tasks is folded and it did
/// not fail.  Unowned points are reported complete — they are simply not
/// this state's to hold.
std::vector<PointStatus> point_status(const SweepStateFile& state) {
  const SweepManifest& m = state.manifest;
  const std::size_t rep = static_cast<std::size_t>(m.replicate);
  std::vector<PointStatus> status(m.n_points(), kComplete);
  for (std::size_t p = 0; p < status.size(); ++p) {
    if (!shard_owns_point(m, p)) continue;
    for (std::size_t t = p * rep; t < (p + 1) * rep; ++t) {
      if (state.folded[t] == 0) status[p] = kUnfinished;
    }
  }
  for (std::size_t p : state.failed) status[p] = kFailed;
  return status;
}

}  // namespace

std::size_t report_missing_points(const SweepStateFile& state,
                                  std::ostream& err) {
  const std::vector<PointStatus> status = point_status(state);
  std::size_t owned = 0, failed = 0, unfinished = 0;
  for (std::size_t p = 0; p < status.size(); ++p) {
    owned += shard_owns_point(state.manifest, p);
    failed += status[p] == kFailed;
    unfinished += status[p] == kUnfinished;
  }
  if (failed + unfinished == 0) return 0;
  // Named one per line, so a degraded table can never be mistaken for a
  // complete one.
  const auto grid = expand_grid(state.manifest.axes);
  err << "sweep: " << failed + unfinished << " of " << owned
      << " grid point(s) (" << failed << " failed, " << unfinished
      << " unfinished) missing from the aggregate:\n";
  for (std::size_t p = 0; p < status.size(); ++p) {
    if (status[p] != kComplete) {
      err << "  " << point_label(state.manifest.axes, grid[p]) << '\n';
    }
  }
  return failed + unfinished;
}

int emit_sweep_aggregate(const SweepStateFile& state, std::ostream& out,
                         std::ostream& err) {
  const std::size_t n_missing = report_missing_points(state, err);
  if (state.header.empty()) {
    err << "error: no CSV trace found in any sweep point's output\n";
    return 1;
  }
  const SweepManifest& manifest = state.manifest;
  const std::vector<SweepAxis>& axes = manifest.axes;
  const auto grid = expand_grid(axes);
  const std::vector<PointStatus> status = point_status(state);
  // Points without state (rowless, missing or unowned) emit nothing.
  std::vector<const summary::ColumnSummary*> per_point(grid.size(), nullptr);
  for (const auto& [idx, acc] : state.points) {
    if (status[idx] == kComplete && acc.row_count() > 0) {
      per_point[idx] = &acc;
    }
  }
  const int rc = n_missing > 0 ? 1 : 0;

  if (manifest.replicate == 1) {
    // Raw aggregate: every point's rows verbatim, in grid order, with the
    // swept values prepended.
    for (const auto& axis : axes) out << axis.key << ',';
    out << state.header << '\n';
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (per_point[i] == nullptr) continue;
      for (const auto& row : per_point[i]->rows()) {
        for (const auto& value : grid[i]) out << value << ',';
        out << join_cells(row) << '\n';
      }
    }
    return rc;
  }

  // Replicated aggregate: one statistics row per point and label group.
  // The reference header comes from the first point that produced rows.
  const summary::ColumnSummary no_rows{summary::split_csv(state.header)};
  const summary::ColumnSummary* reference = &no_rows;
  for (const summary::ColumnSummary* acc : per_point) {
    if (acc != nullptr) {
      reference = acc;
      break;
    }
  }
  const std::vector<std::string> expanded =
      reference->header(manifest.stats);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (per_point[i] != nullptr &&
        per_point[i]->numeric_mask() != reference->numeric_mask()) {
      err << "error: sweep point " << point_label(axes, grid[i])
          << " has a different numeric/label column mix than earlier "
             "points; cannot aggregate\n";
      return 1;
    }
  }

  for (const auto& axis : axes) out << axis.key << ',';
  for (const auto& name : expanded) out << name << ',';
  out << "n_rep\n";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (per_point[i] == nullptr) continue;
    for (const auto& srow : per_point[i]->summarize(manifest.stats)) {
      for (const auto& value : grid[i]) out << value << ',';
      for (const auto& cell : srow) out << cell << ',';
      out << manifest.replicate << '\n';
    }
  }
  return rc;
}

int merge_main(int argc, char** argv, std::ostream& err) {
  std::optional<std::string> output_path;
  std::vector<std::string> part_paths;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--output") {
      if (i + 1 >= argc) {
        err << "error: --output expects a path\n";
        return 2;
      }
      output_path = argv[i + 1];
      ++i;
    } else if (arg.substr(0, 2) == "--") {
      err << "error: unknown merge flag '" << arg << "'\n";
      return 2;
    } else {
      part_paths.emplace_back(arg);
    }
  }
  if (part_paths.empty()) {
    err << "usage: tfmcc_sim merge [--output <path>] <state>...\n"
           "Folds the states written by `sweep --shard i/n` (--output or "
           "--checkpoint) — all n of them, each exactly once — into the "
           "aggregate CSV the unsharded sweep would have written.\n";
    return 2;
  }

  std::vector<SweepStateFile> parts(part_paths.size());
  for (std::size_t i = 0; i < part_paths.size(); ++i) {
    if (!load_state_file(part_paths[i], parts[i], err)) return 2;
  }
  const SweepManifest& ref = parts.front().manifest;
  if (parts.size() != static_cast<std::size_t>(ref.shard_count)) {
    err << "error: sweep was sharded " << ref.shard_count << " ways but "
        << parts.size() << " state file(s) were given\n";
    return 2;
  }
  std::set<int> shards_seen;
  SweepStateFile merged;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (!parts[i].manifest.matches(ref, /*ignore_shard_index=*/true,
                                   "'" + part_paths[i] + "'", err)) {
      return 2;
    }
    if (!shards_seen.insert(parts[i].manifest.shard_index).second) {
      err << "error: shard " << parts[i].manifest.shard_index << "/"
          << ref.shard_count << " appears more than once\n";
      return 2;
    }
    if (!parts[i].header.empty()) {
      if (merged.header.empty()) {
        merged.header = parts[i].header;
      } else if (parts[i].header != merged.header) {
        err << "error: '" << part_paths[i] << "' recorded CSV header '"
            << parts[i].header << "' but earlier states recorded '"
            << merged.header << "'\n";
        return 2;
      }
    }
  }

  merged.manifest = ref;
  merged.manifest.shard_index = 0;
  merged.manifest.shard_count = 1;
  merged.folded.assign(ref.n_tasks(), 0);
  for (SweepStateFile& part : parts) {
    // Each task and point has exactly one owner and every point state
    // matches its file's header (validated at load), so the union installs
    // every accumulator bitwise as its shard folded it.
    for (std::size_t t = 0; t < merged.folded.size(); ++t) {
      merged.folded[t] |= part.folded[t];
    }
    merged.failed.insert(merged.failed.end(), part.failed.begin(),
                         part.failed.end());
    for (auto& point : part.points) merged.points.push_back(std::move(point));
  }

  std::ofstream file;
  std::ostream* out = &std::cout;
  if (output_path.has_value()) {
    if (!open_output_file(*output_path, file, err)) return 2;
    out = &file;
  }
  const int rc = emit_sweep_aggregate(merged, *out, err);
  if (file.is_open() && !finish_output_file(*output_path, file, err)) {
    return 2;
  }
  return rc;
}

}  // namespace tfmcc
