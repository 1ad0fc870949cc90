#include "mem/channels.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace mlp::mem {

ChannelDemux::ChannelDemux(const DramConfig& cfg, std::string stat_prefix,
                           StatSet* stats, trace::TraceSession* trace)
    : cfg_(cfg),
      map_(cfg),
      refresh_(parse_refresh(cfg.refresh)),
      policy_(parse_page_policy(cfg.page_policy)) {
  channels_.reserve(cfg.channels);
  channel_bytes_.resize(cfg.channels);
  for (u32 c = 0; c < cfg.channels; ++c) {
    channel_bytes_[c] = std::make_unique<Counter>();
    channels_.push_back(std::make_unique<MemoryController>(
        cfg, c, &map_, &counters_, channel_bytes_[c].get(), stats,
        stat_prefix, trace));
  }
  if (stats != nullptr) {
    stats->add(stat_prefix + ".reads", &counters_.reads);
    stats->add(stat_prefix + ".writes", &counters_.writes);
    stats->add(stat_prefix + ".row_hits", &counters_.row_hits);
    stats->add(stat_prefix + ".row_misses", &counters_.row_misses);
    stats->add(stat_prefix + ".bytes", &counters_.bytes);
    stats->add(stat_prefix + ".queue_rejections", &counters_.rejected);
    stats->add(stat_prefix + ".ecc_corrected", &counters_.ecc_corrected);
    stats->add(stat_prefix + ".ecc_detected", &counters_.ecc_detected);
    stats->add(stat_prefix + ".fault_retries", &counters_.retries);
    stats->add(stat_prefix + ".silent_corruptions",
               &counters_.silent_corruptions);
    // Feature counters follow the fault-injector convention: registered
    // only when the feature is on, so default-knob stat dumps (and the 32
    // golden files) stay bit-identical to the pre-hierarchy model.
    if (refresh_.enabled) {
      stats->add(stat_prefix + ".refreshes", &counters_.refreshes);
      stats->add(stat_prefix + ".refresh_stall_ps",
                 &counters_.refresh_stall_ps);
    }
    if (!policy_.open_page()) {
      stats->add(stat_prefix + ".explicit_precharges",
                 &counters_.explicit_precharges);
    }
    if (cfg.channels > 1) {
      for (u32 c = 0; c < cfg.channels; ++c) {
        stats->add(stat_prefix + ".ch" + std::to_string(c) + ".bytes",
                   channel_bytes_[c].get());
      }
    }
  }
}

void ChannelDemux::attach_image(DramImage* image) {
  for (const auto& channel : channels_) channel->attach_image(image);
}

bool ChannelDemux::try_push(MemRequest request, Picos now) {
  MLP_SIM_CHECK(request.bytes > 0, "config", "empty request");
  const DramCoord base = map_.decode(request.addr);
  const u32 stripes = map_.stripes();
  if (stripes == 1) {
    // Coarse interleave: the whole request lands on one (channel, rank,
    // bank, row) — identical to the pre-hierarchy single-channel path.
    if (!channels_[base.channel]->try_push(std::move(request), base, now)) {
      return false;
    }
    wake_at(now);
    return true;
  }

  // Sub-row interleave: the contiguous request spreads across the striped
  // dimensions. All-or-nothing capacity pre-check so a partial fan-out never
  // deadlocks the caller's retry logic.
  const u32 n = std::min(request.bytes, stripes);
  const u32 start = map_.stripe_index(base);
  std::vector<u32> demand(channels_.size(), 0);
  for (u32 s = 0; s < n; ++s) {
    demand[map_.stripe_coord(base, (start + s) % stripes).channel]++;
  }
  for (u32 c = 0; c < channels_.size(); ++c) {
    if (demand[c] > channels_[c]->free_slots()) {
      counters_.rejected.inc();
      return false;
    }
  }

  auto join = std::make_shared<StripeJoin>();
  join->remaining = n;
  join->done = std::move(request.on_complete);
  const u32 base_bytes = request.bytes / n;
  const u32 extra = request.bytes % n;
  Addr addr = request.addr;
  for (u32 s = 0; s < n; ++s) {
    MemRequest sub;
    sub.addr = addr;
    sub.bytes = base_bytes + (s < extra ? 1 : 0);
    sub.is_write = request.is_write;
    sub.is_prefetch = request.is_prefetch;
    sub.on_complete = [join](Picos done_at) {
      join->latest = std::max(join->latest, done_at);
      if (--join->remaining == 0 && join->done) join->done(join->latest);
    };
    addr += sub.bytes;
    const DramCoord coord = map_.stripe_coord(base, (start + s) % stripes);
    const bool pushed =
        channels_[coord.channel]->try_push(std::move(sub), coord, now);
    MLP_SIM_CHECK(pushed, "config", "striped push failed after pre-check");
  }
  wake_at(now);
  return true;
}

void ChannelDemux::tick(Picos now) {
  bool freed = false;
  for (const auto& channel : channels_) freed |= channel->tick(now);
  if (freed) wake_parked(&parked_, now);
}

void ChannelDemux::checkpoint(sim::StateIO& io) {
  io.expect(static_cast<u32>(channels_.size()), "channel count");
  for (const auto& channel : channels_) channel->checkpoint(io);
}

std::string ChannelDemux::debug_dump() const {
  if (channels_.size() == 1) return channels_[0]->debug_dump();
  std::string out;
  for (u32 c = 0; c < channels_.size(); ++c) {
    out += "  dram channel " + std::to_string(c) + ":\n";
    out += channels_[c]->debug_dump();
  }
  return out;
}

}  // namespace mlp::mem
