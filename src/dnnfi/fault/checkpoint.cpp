#include "dnnfi/fault/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string_view>

#include "dnnfi/common/atomic_file.h"

namespace dnnfi::fault {

namespace {

Error defect(Errc code, const std::string& path, const std::string& why) {
  return Error{code, "checkpoint " + path + ": " + why};
}

}  // namespace

Expected<void> try_save_shard_checkpoint(const std::string& path,
                                         const ShardCheckpoint& ck) {
  DNNFI_EXPECTS(!path.empty());
  ByteWriter payload;
  payload.u64(ck.fingerprint);
  payload.str(ck.network);
  payload.str(ck.accel);
  payload.str(ck.fault_op);
  payload.str(ck.sampler);
  payload.u64(ck.trials_total);
  payload.u64(ck.shard_begin);
  payload.u64(ck.shard_end);
  payload.u64(ck.next_trial);
  payload.u8(ck.complete ? 1 : 0);
  payload.u64(ck.masked_exits);
  payload.u64(ck.aborted_trials.size());
  for (const std::uint64_t t : ck.aborted_trials) payload.u64(t);
  ck.acc.serialize(payload);
  payload.u8(ck.stratified.has_value() ? 1 : 0);
  if (ck.stratified) {
    const StratifiedCheckpoint& s = *ck.stratified;
    payload.u64(s.rounds);
    payload.u64(s.cursor);
    payload.u64(s.plan.size());
    for (const std::uint64_t n : s.plan) payload.u64(n);
    payload.u64(s.strata.size());
    for (const StratumCheckpoint& h : s.strata) {
      payload.str(h.id);
      payload.f64(h.weight);
      h.acc.serialize(payload);
    }
  }

  ByteWriter file;
  file.raw(reinterpret_cast<const std::uint8_t*>(kCheckpointMagic),
           sizeof(kCheckpointMagic));
  file.u32(kCheckpointVersion);
  file.u32(crc32(payload.bytes()));
  file.u64(payload.bytes().size());
  file.raw(payload.bytes().data(), payload.bytes().size());

  auto written = write_file_atomic(
      path, std::string_view(reinterpret_cast<const char*>(file.bytes().data()),
                             file.bytes().size()));
  if (!written.ok())
    return defect(Errc::kIo, path, written.error().message);
  return {};
}

Expected<ShardCheckpoint> try_load_shard_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return defect(Errc::kIo, path, "cannot open for reading");
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return parse_checkpoint_bytes(bytes.data(), bytes.size(), path);
}

Expected<ShardCheckpoint> parse_checkpoint_bytes(const std::uint8_t* data,
                                                 std::size_t size,
                                                 const std::string& path) {
  ByteReader r(data, size);
  try {
    std::uint8_t magic[sizeof(kCheckpointMagic)];
    for (auto& m : magic) m = r.u8();
    if (std::memcmp(magic, kCheckpointMagic, sizeof(magic)) != 0)
      return defect(Errc::kCorruptData, path,
                    "bad magic (not a dnnfi shard checkpoint)");
    const std::uint32_t version = r.u32();
    if (version != kCheckpointVersion)
      return defect(Errc::kVersionSkew, path,
                    "unsupported format version " + std::to_string(version) +
                        " (this build reads version " +
                        std::to_string(kCheckpointVersion) + ")");
    const std::uint32_t stored_crc = r.u32();
    const std::uint64_t payload_size = r.u64();
    if (payload_size != r.remaining())
      return defect(Errc::kCorruptData, path,
                    "payload size mismatch: header says " +
                        std::to_string(payload_size) + ", file holds " +
                        std::to_string(r.remaining()));
    const std::uint32_t actual_crc =
        crc32(data + (size - payload_size), payload_size);
    if (actual_crc != stored_crc)
      return defect(Errc::kCorruptData, path,
                    "CRC mismatch (stored " + std::to_string(stored_crc) +
                        ", computed " + std::to_string(actual_crc) +
                        ") — file is corrupt");

    ShardCheckpoint ck;
    ck.fingerprint = r.u64();
    ck.network = r.str();
    ck.accel = r.str();
    ck.fault_op = r.str();
    ck.sampler = r.str();
    ck.trials_total = r.u64();
    ck.shard_begin = r.u64();
    ck.shard_end = r.u64();
    ck.next_trial = r.u64();
    ck.complete = r.u8() != 0;
    ck.masked_exits = r.u64();
    // Every count that sizes an allocation is checked against the bytes
    // left first (8 per entry at least), so a corrupt count is a typed
    // error here instead of a length_error or bad_alloc out of reserve().
    const std::uint64_t aborted = r.u64();
    if (aborted > ck.trials_total || aborted > r.remaining() / 8)
      return defect(Errc::kCorruptData, path,
                    "aborted-trial count " + std::to_string(aborted) +
                        " exceeds trials_total " +
                        std::to_string(ck.trials_total) +
                        " or the bytes left");
    ck.aborted_trials.reserve(static_cast<std::size_t>(aborted));
    for (std::uint64_t i = 0; i < aborted; ++i)
      ck.aborted_trials.push_back(r.u64());
    ck.acc = OutcomeAccumulator::deserialize(r);
    if (r.u8() != 0) {
      StratifiedCheckpoint s;
      s.rounds = r.u64();
      s.cursor = r.u64();
      // Structural sanity bound: strata counts are (blocks x classes x
      // latches), a few hundred in practice; anything huge is corruption
      // and must not drive allocations.
      constexpr std::uint64_t kMaxStrata = 1u << 20;
      const std::uint64_t plan_count = r.u64();
      if (plan_count > kMaxStrata || plan_count > r.remaining() / 8)
        return defect(Errc::kCorruptData, path,
                      "implausible stratified plan size " +
                          std::to_string(plan_count));
      s.plan.reserve(static_cast<std::size_t>(plan_count));
      std::uint64_t plan_sum = 0;
      for (std::uint64_t i = 0; i < plan_count; ++i) {
        s.plan.push_back(r.u64());
        plan_sum += s.plan.back();
      }
      const std::uint64_t strata_count = r.u64();
      if (strata_count > kMaxStrata || strata_count > r.remaining() / 8)
        return defect(Errc::kCorruptData, path,
                      "implausible stratum count " +
                          std::to_string(strata_count));
      if (strata_count == 0 ||
          (plan_count != 0 && plan_count != strata_count))
        return defect(Errc::kCorruptData, path,
                      "stratified section has " +
                          std::to_string(strata_count) + " strata but a " +
                          std::to_string(plan_count) + "-entry plan");
      if (s.cursor > plan_sum)
        return defect(Errc::kCorruptData, path,
                      "stratified cursor " + std::to_string(s.cursor) +
                          " exceeds in-flight plan total " +
                          std::to_string(plan_sum));
      s.strata.reserve(static_cast<std::size_t>(strata_count));
      for (std::uint64_t i = 0; i < strata_count; ++i) {
        StratumCheckpoint h;
        h.id = r.str();
        h.weight = r.f64();
        h.acc = OutcomeAccumulator::deserialize(r);
        s.strata.push_back(std::move(h));
      }
      ck.stratified = std::move(s);
    }
    if (!r.done())
      return defect(Errc::kCorruptData, path, "trailing garbage after payload");
    if (ck.shard_begin > ck.shard_end || ck.next_trial < ck.shard_begin ||
        ck.next_trial > ck.shard_end || ck.shard_end > ck.trials_total)
      return defect(Errc::kCorruptData, path,
                    "inconsistent shard range [" +
                        std::to_string(ck.shard_begin) + ", " +
                        std::to_string(ck.shard_end) + ") next=" +
                        std::to_string(ck.next_trial) + " total=" +
                        std::to_string(ck.trials_total));
    return ck;
  } catch (const SerialError& e) {
    return defect(Errc::kCorruptData, path,
                  std::string("malformed payload: ") + e.what());
  }
}

Expected<std::vector<std::uint8_t>> read_checkpoint_bytes(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return defect(Errc::kIo, path, "cannot open for shipping");
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  // Never ship an image the receiver would reject: a torn local file is
  // better caught at the source, where "which disk is bad" is unambiguous.
  if (auto parsed = parse_checkpoint_bytes(bytes.data(), bytes.size(), path);
      !parsed.ok())
    return parsed.error();
  return bytes;
}

Expected<void> write_checkpoint_bytes(const std::string& path,
                                      const std::uint8_t* data,
                                      std::size_t size) {
  auto parsed = parse_checkpoint_bytes(data, size, path);
  if (!parsed.ok())
    return fail(Errc::kCheckpointShip,
                "shipped checkpoint for " + path +
                    " failed validation: " + parsed.error().message);
  auto written = write_file_atomic(
      path,
      std::string_view(reinterpret_cast<const char*>(data), size));
  if (!written.ok()) return defect(Errc::kIo, path, written.error().message);
  return {};
}

void save_shard_checkpoint(const std::string& path,
                           const ShardCheckpoint& ck) {
  auto saved = try_save_shard_checkpoint(path, ck);
  if (!saved.ok()) throw CheckpointError(saved.error());
}

ShardCheckpoint load_shard_checkpoint(const std::string& path) {
  auto loaded = try_load_shard_checkpoint(path);
  if (!loaded.ok()) throw CheckpointError(loaded.error());
  return std::move(loaded).value();
}

Expected<void> validate_checkpoint_axes(const ShardCheckpoint& ck,
                                        const std::string& accel,
                                        const std::string& fault_op,
                                        const std::string& sampler) {
  if (ck.accel != accel)
    return fail(Errc::kFingerprintMismatch,
                "checkpoint was produced on accelerator '" + ck.accel +
                    "' but this campaign runs '" + accel + "'");
  if (ck.fault_op != fault_op)
    return fail(Errc::kFingerprintMismatch,
                "checkpoint was produced with fault op '" + ck.fault_op +
                    "' but this campaign runs '" + fault_op + "'");
  if (ck.sampler != sampler)
    return fail(Errc::kFingerprintMismatch,
                "checkpoint was produced with sampler '" + ck.sampler +
                    "' but this campaign runs '" + sampler + "'");
  return {};
}

Expected<ShardCheckpoint> merge_checkpoints(
    const std::vector<NamedCheckpoint>& shards,
    const std::vector<std::uint64_t>& quarantined) {
  if (shards.empty())
    return fail(Errc::kShardMismatch,
                "nothing to merge: no complete shard checkpoint");
  const NamedCheckpoint& first = shards.front();
  std::vector<const NamedCheckpoint*> order;
  for (const NamedCheckpoint& s : shards) {
    if (!s.ck.complete)
      return fail(Errc::kShardMismatch,
                  "shard " + s.origin + " is incomplete; finish it first");
    if (s.ck.fingerprint != first.ck.fingerprint ||
        s.ck.trials_total != first.ck.trials_total)
      return fail(Errc::kFingerprintMismatch,
                  "shard " + s.origin + " belongs to a different campaign than " +
                      first.origin);
    if (auto axes = validate_checkpoint_axes(s.ck, first.ck.accel,
                                             first.ck.fault_op,
                                             first.ck.sampler);
        !axes.ok())
      return fail(axes.error().code,
                  "shard " + s.origin + ": " + axes.error().message);
    order.push_back(&s);
  }
  std::sort(order.begin(), order.end(), [](const auto* x, const auto* y) {
    return x->ck.shard_begin < y->ck.shard_begin;
  });

  // Identity fields come from the first operand; the folded ones restart.
  ShardCheckpoint merged = first.ck;
  merged.shard_begin = 0;
  merged.shard_end = merged.trials_total;
  merged.masked_exits = 0;
  merged.aborted_trials = quarantined;
  merged.acc = OutcomeAccumulator();
  merged.stratified.reset();
  for (std::size_t i = 0; i < order.size(); ++i) {
    const ShardCheckpoint& ck = order[i]->ck;
    if (i > 0 && ck.shard_begin < order[i - 1]->ck.shard_end)
      return fail(Errc::kShardMismatch, "shards " + order[i - 1]->origin +
                                            " and " + order[i]->origin +
                                            " overlap");
    merged.acc.merge(ck.acc);
    merged.masked_exits += ck.masked_exits;
    merged.aborted_trials.insert(merged.aborted_trials.end(),
                                 ck.aborted_trials.begin(),
                                 ck.aborted_trials.end());
  }
  std::vector<std::uint64_t>& aborted = merged.aborted_trials;
  std::sort(aborted.begin(), aborted.end());
  aborted.erase(std::unique(aborted.begin(), aborted.end()), aborted.end());

  // Coverage sweep: each step takes the next operand range, or one
  // quarantined trial that no range holds.
  std::uint64_t next = 0;
  for (std::size_t i = 0;;) {
    if (i < order.size() && order[i]->ck.shard_begin <= next)
      next = std::max(next, order[i++]->ck.shard_end);
    else if (next < merged.trials_total &&
             std::binary_search(aborted.begin(), aborted.end(), next))
      ++next;
    else
      break;
  }
  merged.next_trial = next;
  merged.complete = next == merged.trials_total;
  return merged;
}

}  // namespace dnnfi::fault
