// Data acquisition emulation (Fig. 10, §3.2). Both MOST sites ran LabVIEW
// DAQs that "periodically gathered data deposited by the DAQ in a
// network-mounted file system"; NFMS/GridFTP then uploaded it. We reproduce
// the same pipeline: sampled channels accumulate in ring buffers, a flusher
// drops CSV files into a directory, and a harvester picks files up for
// ingestion into the repository (and optional live NSDS publication).
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/mutex.h"

#include "nsds/nsds.h"
#include "util/result.h"

namespace nees::obs {
class Tracer;
}  // namespace nees::obs

namespace nees::daq {

struct ChannelConfig {
  std::string name;          // e.g. "uiuc.lvdt1"
  std::string units;         // "m", "N", "strain"
  double sample_rate_hz = 100.0;
};

/// Fixed-capacity ring buffer of (time, value) samples per channel.
class DaqSystem {
 public:
  explicit DaqSystem(std::size_t ring_capacity = 65536);

  void AddChannel(const ChannelConfig& config);
  std::vector<std::string> ChannelNames() const;
  util::Result<ChannelConfig> GetChannel(const std::string& name) const;

  /// Records one sample; unknown channels are rejected.
  util::Status Record(const std::string& channel, std::int64_t time_micros,
                      double value);

  /// Samples currently buffered for a channel (oldest first).
  std::vector<nsds::DataSample> Buffered(const std::string& channel) const;

  /// Total samples ever recorded / dropped to ring overflow.
  std::uint64_t recorded() const;
  std::uint64_t overwritten() const;

  /// Drains all buffers into one CSV file "<prefix>_<counter>.csv" in
  /// `drop_dir` (created if missing); returns the file path, or NotFound
  /// if there was nothing to flush. Format: channel,time_micros,value.
  util::Result<std::filesystem::path> Flush(
      const std::filesystem::path& drop_dir, const std::string& prefix);

  /// Optional: records sample counters and one "ingest" event per flush.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  std::size_t ring_capacity_;
  obs::Tracer* tracer_ = nullptr;
  mutable util::Mutex mu_{"daq.DaqSystem"};
  std::map<std::string, ChannelConfig> channels_;
  std::map<std::string, std::deque<nsds::DataSample>> buffers_;
  std::uint64_t recorded_ = 0;
  std::uint64_t overwritten_ = 0;
  std::uint64_t flush_counter_ = 0;
};

/// Parses a DAQ drop file back into samples (used by the harvester and by
/// the repository ingestion tool).
util::Result<std::vector<nsds::DataSample>> ParseDropFile(
    const std::filesystem::path& file);

/// Parses DAQ CSV content already in memory (e.g. fetched from the
/// repository by a viewer).
util::Result<std::vector<nsds::DataSample>> ParseDropCsv(
    std::string_view content);

/// Periodically scans the drop directory and hands each new file to a sink
/// (ingestion and/or streaming). A file the sink accepts is removed, so no
/// later scan ingests it again and the directory holds only what is still
/// pending: each scan lists pending files, not every file a long-lived DAQ
/// ever dropped. A file that fails to parse stays for operator inspection;
/// one the sink refuses stays and is retried on the next scan.
class Harvester {
 public:
  using FileSink = std::function<util::Status(
      const std::filesystem::path& file,
      const std::vector<nsds::DataSample>& samples)>;

  Harvester(std::filesystem::path drop_dir, FileSink sink);

  /// One scan pass; returns the number of files processed.
  util::Result<int> ScanOnce();

  std::uint64_t files_processed() const { return files_processed_; }
  std::uint64_t samples_processed() const { return samples_processed_; }
  std::uint64_t files_failed() const { return files_failed_; }

  /// Optional: records one "ingest" event per harvested file.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  std::filesystem::path drop_dir_;
  FileSink sink_;
  obs::Tracer* tracer_ = nullptr;
  std::uint64_t files_processed_ = 0;
  std::uint64_t samples_processed_ = 0;
  std::uint64_t files_failed_ = 0;
};

}  // namespace nees::daq
