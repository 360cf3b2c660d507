#include "obs/trace.hpp"

#include <cmath>

#include "obs/json.hpp"

namespace mayflower::obs {

FlowTraceRecord* FlowTracer::mutable_active(std::uint64_t cookie) {
  const auto it = active_.find(cookie);
  return it == active_.end() ? nullptr : &it->second;
}

const FlowTraceRecord* FlowTracer::find_active(std::uint64_t cookie) const {
  common::MutexLock lock(mu_);
  const auto it = active_.find(cookie);
  return it == active_.end() ? nullptr : &it->second;
}

void FlowTracer::flow_planned(std::uint64_t cookie, double now_sec,
                              double bytes, double planned_bw_bps) {
  common::MutexLock lock(mu_);
  if (!enabled_) return;
  FlowTraceRecord rec;
  rec.cookie = cookie;
  rec.planned_bw_bps = planned_bw_bps;
  rec.planned_bytes = bytes;
  rec.start_sec = now_sec;
  active_[cookie] = rec;
}

void FlowTracer::flow_resized(std::uint64_t cookie, double new_bytes) {
  common::MutexLock lock(mu_);
  FlowTraceRecord* rec = mutable_active(cookie);
  if (rec == nullptr) return;
  ++rec->resizes;
  if (!rec->started) rec->planned_bytes = new_bytes;
}

void FlowTracer::flow_bw_set(std::uint64_t cookie, double bw_bps) {
  common::MutexLock lock(mu_);
  FlowTraceRecord* rec = mutable_active(cookie);
  if (rec == nullptr) return;
  if (rec->started) {
    ++rec->setbw_bumps;  // a later selection revised this flow's share
  } else {
    rec->planned_bw_bps = bw_bps;  // still planning (multi-read adjustment)
  }
}

void FlowTracer::freeze_hit(std::uint64_t cookie) {
  common::MutexLock lock(mu_);
  FlowTraceRecord* rec = mutable_active(cookie);
  if (rec != nullptr) ++rec->freeze_hits;
}

void FlowTracer::mark_split(std::uint64_t cookie) {
  common::MutexLock lock(mu_);
  FlowTraceRecord* rec = mutable_active(cookie);
  if (rec != nullptr) rec->split = true;
}

void FlowTracer::flow_started(std::uint64_t cookie, double now_sec) {
  common::MutexLock lock(mu_);
  FlowTraceRecord* rec = mutable_active(cookie);
  if (rec == nullptr) return;
  rec->started = true;
  rec->start_sec = now_sec;
}

void FlowTracer::flow_rerouted(std::uint64_t cookie) {
  common::MutexLock lock(mu_);
  FlowTraceRecord* rec = mutable_active(cookie);
  if (rec != nullptr) ++rec->reroutes;
}

void FlowTracer::finish(std::uint64_t cookie, double now_sec,
                        double moved_bytes, bool killed) {
  const auto it = active_.find(cookie);
  if (it == active_.end()) return;
  FlowTraceRecord rec = it->second;
  active_.erase(it);
  rec.end_sec = now_sec;
  rec.moved_bytes = moved_bytes;
  rec.killed = killed;
  const double dur = now_sec - rec.start_sec;
  rec.realized_bw_bps = dur > 0.0 ? moved_bytes / dur : 0.0;
  finished_.push_back(rec);
}

void FlowTracer::flow_completed(std::uint64_t cookie, double now_sec,
                                double moved_bytes) {
  common::MutexLock lock(mu_);
  finish(cookie, now_sec, moved_bytes, /*killed=*/false);
}

void FlowTracer::flow_killed(std::uint64_t cookie, double now_sec,
                             double moved_bytes) {
  common::MutexLock lock(mu_);
  finish(cookie, now_sec, moved_bytes, /*killed=*/true);
}

void FlowTracer::decision(const DecisionAudit& audit) {
  common::MutexLock lock(mu_);
  if (!enabled_) return;
  decisions_.push_back(audit);
}

void FlowTracer::belief_error_sample(double error) {
  common::MutexLock lock(mu_);
  if (!enabled_) return;
  belief_errors_.push_back(error);
}

std::vector<double> FlowTracer::estimator_errors() const {
  common::MutexLock lock(mu_);
  std::vector<double> out;
  out.reserve(finished_.size());
  for (const FlowTraceRecord& rec : finished_) {
    if (rec.killed || rec.realized_bw_bps <= 0.0) continue;
    out.push_back(std::abs(rec.planned_bw_bps - rec.realized_bw_bps) /
                  rec.realized_bw_bps);
  }
  return out;
}

void FlowTracer::write_json(std::string* out) const {
  common::MutexLock lock(mu_);
  json_key("flows", out);
  out->push_back('[');
  for (std::size_t i = 0; i < finished_.size(); ++i) {
    const FlowTraceRecord& r = finished_[i];
    if (i > 0) out->push_back(',');
    out->push_back('{');
    json_key("cookie", out);
    json_append(r.cookie, out);
    out->push_back(',');
    json_key("planned_bw_bps", out);
    json_append(r.planned_bw_bps, out);
    out->push_back(',');
    json_key("planned_bytes", out);
    json_append(r.planned_bytes, out);
    out->push_back(',');
    json_key("start_sec", out);
    json_append(r.start_sec, out);
    out->push_back(',');
    json_key("end_sec", out);
    json_append(r.end_sec, out);
    out->push_back(',');
    json_key("realized_bw_bps", out);
    json_append(r.realized_bw_bps, out);
    out->push_back(',');
    json_key("moved_bytes", out);
    json_append(r.moved_bytes, out);
    out->push_back(',');
    json_key("resizes", out);
    json_append(static_cast<std::uint64_t>(r.resizes), out);
    out->push_back(',');
    json_key("reroutes", out);
    json_append(static_cast<std::uint64_t>(r.reroutes), out);
    out->push_back(',');
    json_key("freeze_hits", out);
    json_append(static_cast<std::uint64_t>(r.freeze_hits), out);
    out->push_back(',');
    json_key("setbw_bumps", out);
    json_append(static_cast<std::uint64_t>(r.setbw_bumps), out);
    out->push_back(',');
    json_key("split", out);
    json_append(r.split, out);
    out->push_back(',');
    json_key("killed", out);
    json_append(r.killed, out);
    out->push_back('}');
  }
  *out += "],";
  json_key("decisions", out);
  out->push_back('[');
  for (std::size_t i = 0; i < decisions_.size(); ++i) {
    const DecisionAudit& d = decisions_[i];
    if (i > 0) out->push_back(',');
    out->push_back('{');
    json_key("time_sec", out);
    json_append(d.time_sec, out);
    out->push_back(',');
    json_key("candidates", out);
    json_append(static_cast<std::uint64_t>(d.candidates), out);
    out->push_back(',');
    json_key("own_time_sec", out);
    json_append(d.own_time_sec, out);
    out->push_back(',');
    json_key("impact_sec", out);
    json_append(d.impact_sec, out);
    out->push_back(',');
    json_key("frozen_flows", out);
    json_append(static_cast<std::uint64_t>(d.frozen_flows), out);
    out->push_back(',');
    json_key("freeze_suppressed", out);
    json_append(d.freeze_suppressed, out);
    out->push_back(',');
    json_key("split", out);
    json_append(d.split, out);
    out->push_back('}');
  }
  out->push_back(']');
}

}  // namespace mayflower::obs
