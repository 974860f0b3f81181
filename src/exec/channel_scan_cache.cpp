#include "exec/channel_scan_cache.hpp"

#include "core/engine.hpp"
#include "obs/trace.hpp"

namespace eco::exec {

ChannelScanCache::ChannelScanCache(const core::EcoFusionEngine& engine,
                                   const dataset::Frame& frame, bool share,
                                   detect::ScanScratch& scratch)
    : engine_(engine), frame_(frame), share_(share), scratch_(&scratch) {
  const core::ChannelScanPlan& plan = engine_.scan_plan();
  slots_.resize(share_ ? plan.num_scans() : plan.total_channels);
}

std::size_t ChannelScanCache::slot_of(core::BranchId branch,
                                      std::size_t channel) const {
  const core::ChannelScanPlan& plan = engine_.scan_plan();
  return share_ ? plan.scan_id(branch, channel)
                : plan.flat_index(branch, channel);
}

const std::vector<detect::Detection>& ChannelScanCache::scan(
    core::BranchId branch, std::size_t channel) {
  ++requested_;
  auto& slot = slots_[slot_of(branch, channel)];
  if (!slot) {
    // The plan pins the channel's sensor (shared slots verified to read the
    // same grid), so scanning through the requesting branch's detector is
    // exact for every consumer of the slot.
    const core::ChannelScanPlan& plan = engine_.scan_plan();
    const std::size_t scan_id = plan.scan_id(branch, channel);
    obs::Span span(obs::Stage::kChannelScan);
    span.arg(static_cast<double>(scan_id));
    const dataset::SensorKind sensor = plan.scans[scan_id].sensor;
    slot = engine_.branch_detector(branch).scan_channel(
        channel, frame_.grid(sensor), scratch_);
    ++executed_;
  }
  return *slot;
}

}  // namespace eco::exec
