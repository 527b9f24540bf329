#include "daq/daq.h"

#include <fstream>

#include "obs/trace.h"
#include "util/strings.h"

namespace nees::daq {

DaqSystem::DaqSystem(std::size_t ring_capacity)
    : ring_capacity_(ring_capacity) {}

void DaqSystem::AddChannel(const ChannelConfig& config) {
  util::MutexLock lock(mu_);
  channels_[config.name] = config;
  buffers_.try_emplace(config.name);
}

std::vector<std::string> DaqSystem::ChannelNames() const {
  util::MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(channels_.size());
  for (const auto& [name, config] : channels_) {
    (void)config;
    names.push_back(name);
  }
  return names;
}

util::Result<ChannelConfig> DaqSystem::GetChannel(
    const std::string& name) const {
  util::MutexLock lock(mu_);
  auto it = channels_.find(name);
  if (it == channels_.end()) return util::NotFound("no channel: " + name);
  return it->second;
}

util::Status DaqSystem::Record(const std::string& channel,
                               std::int64_t time_micros, double value) {
  util::MutexLock lock(mu_);
  auto it = buffers_.find(channel);
  if (it == buffers_.end()) return util::NotFound("no channel: " + channel);
  if (it->second.size() >= ring_capacity_) {
    it->second.pop_front();
    ++overwritten_;
  }
  it->second.push_back({channel, time_micros, value});
  ++recorded_;
  if (tracer_ != nullptr) tracer_->metrics().Increment("daq.samples");
  return util::OkStatus();
}

std::vector<nsds::DataSample> DaqSystem::Buffered(
    const std::string& channel) const {
  util::MutexLock lock(mu_);
  auto it = buffers_.find(channel);
  if (it == buffers_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

std::uint64_t DaqSystem::recorded() const {
  util::MutexLock lock(mu_);
  return recorded_;
}

std::uint64_t DaqSystem::overwritten() const {
  util::MutexLock lock(mu_);
  return overwritten_;
}

util::Result<std::filesystem::path> DaqSystem::Flush(
    const std::filesystem::path& drop_dir, const std::string& prefix) {
  util::MutexLock lock(mu_);
  std::string content;
  std::size_t total = 0;
  for (auto& [channel, buffer] : buffers_) {
    for (const nsds::DataSample& sample : buffer) {
      content += util::Format("%s,%lld,%.12g\n", channel.c_str(),
                              static_cast<long long>(sample.time_micros),
                              sample.value);
      ++total;
    }
    buffer.clear();
  }
  if (total == 0) return util::NotFound("nothing to flush");

  std::error_code ec;
  std::filesystem::create_directories(drop_dir, ec);
  if (ec) return util::Internal("cannot create drop dir: " + ec.message());
  const std::filesystem::path file =
      drop_dir / util::Format("%s_%06llu.csv", prefix.c_str(),
                              static_cast<unsigned long long>(
                                  flush_counter_++));
  std::ofstream out(file);
  if (!out) return util::Internal("cannot open " + file.string());
  out << content;
  out.close();
  if (tracer_ != nullptr) {
    // filename() only: the drop dir is usually a throwaway temp path whose
    // name would break byte-identical traces across runs.
    tracer_->RecordEvent("daq.flush", "ingest", 0,
                         {{"file", file.filename().string()},
                          {"samples", std::to_string(total)}});
    tracer_->metrics().Increment("daq.flushes");
  }
  return file;
}

util::Result<std::vector<nsds::DataSample>> ParseDropCsv(
    std::string_view content) {
  std::vector<nsds::DataSample> samples;
  int line_number = 0;
  for (const std::string& line : util::Split(content, '\n')) {
    ++line_number;
    if (util::Trim(line).empty()) continue;
    const auto parts = util::Split(line, ',');
    long long time_micros = 0;
    double value = 0.0;
    if (parts.size() != 3 || !util::ParseInt(parts[1], &time_micros) ||
        !util::ParseDouble(parts[2], &value)) {
      return util::DataLoss(
          util::Format("malformed DAQ row at line %d", line_number));
    }
    samples.push_back({parts[0], time_micros, value});
  }
  return samples;
}

util::Result<std::vector<nsds::DataSample>> ParseDropFile(
    const std::filesystem::path& file) {
  std::ifstream in(file);
  if (!in) return util::NotFound("cannot open " + file.string());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  auto samples = ParseDropCsv(content);
  if (!samples.ok()) {
    return util::DataLoss(samples.status().message() + " in " +
                          file.string());
  }
  return samples;
}

Harvester::Harvester(std::filesystem::path drop_dir, FileSink sink)
    : drop_dir_(std::move(drop_dir)), sink_(std::move(sink)) {}

util::Result<int> Harvester::ScanOnce() {
  std::error_code ec;
  if (!std::filesystem::exists(drop_dir_, ec)) return 0;
  std::vector<std::filesystem::path> pending;
  for (const auto& entry :
       std::filesystem::directory_iterator(drop_dir_, ec)) {
    if (ec) return util::Internal("scan failed: " + ec.message());
    if (entry.path().extension() == ".csv") pending.push_back(entry.path());
  }
  std::sort(pending.begin(), pending.end());

  int processed = 0;
  for (const std::filesystem::path& file : pending) {
    auto samples = ParseDropFile(file);
    if (!samples.ok()) {
      ++files_failed_;
      continue;  // leave the bad file for operator inspection
    }
    const util::Status sunk = sink_(file, *samples);
    if (!sunk.ok()) {
      ++files_failed_;
      continue;  // retry on the next scan
    }
    // Gone before the next scan, so it is ingested once; keeping a copy is
    // the repository's job, not the drop directory's.
    std::filesystem::remove(file, ec);
    if (ec) {
      return util::Internal("cannot remove " + file.string() + ": " +
                            ec.message());
    }
    ++files_processed_;
    samples_processed_ += samples->size();
    ++processed;
    if (tracer_ != nullptr) {
      tracer_->RecordEvent("daq.harvest", "ingest", 0,
                           {{"file", file.filename().string()},
                            {"samples", std::to_string(samples->size())}});
      tracer_->metrics().Increment("daq.files_harvested");
    }
  }
  return processed;
}

}  // namespace nees::daq
