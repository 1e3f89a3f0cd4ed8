// Levels 2-4 of the traced run, plus the modeled-cycle check.
//
//   level 2  the workload's seeded schedule through an in-process
//            KemService configured like `kem_server --listen 0
//            --workers 2` (both schemes, all-RTL mix, prober on)
//   level 3  lac::encapsulate_checked / decapsulate_checked called
//            directly with a KeyContext, on a backend built like a
//            service rig: the scheme-profile registry, perf::rtl_*
//            callables in the scheme's RTL-capable slots, verify_hash on;
//            every slot callable is wrapped in a timing shim installed
//            with PqUnit::install
//   level 4  the stage functions and kernels on their own, including a
//            stage-by-stage replay of each op from lac's public stage
//            functions that must reproduce the op's outputs bit for bit
//
// Every call the benchmark makes is a span in one in-memory SpanLog; the
// slot shims open child spans, so a stage's self time excludes the slot
// time inside it. The replay's stage spans must cover the level-3 op's
// wall time to within kAttributionTolerance; the rest is reported as
// lac.<s>.<op>.unattributed_share.
#include "layers.h"

#include <condition_variable>
#include <deque>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>

#include "bch/berlekamp.h"
#include "bch/decoder.h"
#include "bch/syndrome.h"
#include "lac/context.h"
#include "lac/kem_batch.h"
#include "lac/sampler.h"
#include "perf/rtl_backend.h"
#include "scheme/lwr.h"
#include "scheme/profile.h"
#include "service/service.h"
#include "verify/verifier.h"

namespace hsbench {
namespace {

/// Largest share of a level-3 op's wall time the level-4 replay may leave
/// uncovered before the attribution check fails.
constexpr double kAttributionTolerance = 0.10;

constexpr u8 kTagMessage = 0x11;  // kem.cpp's domain-separation tags
constexpr u8 kTagCoins = 0x12;
constexpr u8 kTagKeyBar = 0x13;

struct SchemeCase {
  const char* label;
  const lac::Params* params;
  const scheme::SchemeProfile* profile;
  u32 key_id;
};

const SchemeCase kSchemes[] = {
    {"lac128", &lac::Params::lac128(), &scheme::SchemeProfile::lac(), 0},
    {"lwr512", &scheme::lwr::lwr512(), &scheme::SchemeProfile::lwr(), 1},
};

/// kem_server --listen 0 --workers 2 with its other defaults.
service::ServiceConfig kem_server_config() {
  service::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 2 * 64 + 8;
  cfg.probe_interval_micros = 5'000;
  cfg.second_params = &scheme::lwr::lwr512();
  cfg.second_key_seed[0] = 0x4c;
  cfg.second_key_seed[1] = 0x57;
  cfg.second_key_seed[2] = 0x52;
  return cfg;
}

/// The keypair kem_server provisions under `key_id`.
hash::Seed key_seed(u32 key_id) {
  return key_id == 0 ? kem_server_config().key_seed
                     : kem_server_config().second_key_seed;
}

hash::Seed to_seed(const hash::Digest& d) {
  hash::Seed s;
  std::copy(d.begin(), d.end(), s.begin());
  return s;
}

template <typename F>
double time_us(F&& f) {
  const u64 t = now_ns();
  f();
  return to_us(now_ns() - t);
}

template <typename F>
double median_us(int reps, F&& f) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) samples.push_back(time_us(f));
  return median(std::move(samples));
}

/// The failed checks of this run and how often each failed; run.py
/// reports them and turns any into correct=false.
std::map<std::string, u64> g_failures;

void check(bool ok, const std::string& what) {
  if (!ok) ++g_failures[what];
}

// ---- level 3: the rig backend with timing shims ---------------------------

struct SlotTally {
  double us = 0;
  u64 calls = 0;
};

/// Timing shims around the slot callables. Each call opens a child span
/// of whatever span is open, and adds to the running per-slot tally.
struct Shims {
  SpanLog* log = nullptr;
  SlotTally mul_ter, chien, sha256;

  template <typename F>
  auto timed(SlotTally& tally, const char* name, F&& f) {
    const u32 span = log->open(name, 0);
    auto out = f();
    log->close(span);
    tally.us += (*log)[span].duration_us();
    ++tally.calls;
    return out;
  }
};

struct RtlUnits {
  std::shared_ptr<rtl::MulTerRtl> mul =
      std::make_shared<rtl::MulTerRtl>(poly::kMulTerLength);
  std::shared_ptr<rtl::ChienRtl> chien = std::make_shared<rtl::ChienRtl>();
  std::shared_ptr<rtl::Sha256Rtl> sha = std::make_shared<rtl::Sha256Rtl>();
  std::shared_ptr<rtl::BarrettRtl> barrett =
      std::make_shared<rtl::BarrettRtl>();
};

/// A backend wired like one KemService worker rig for the scheme: RTL
/// callables in the profile's RTL-capable slots, the modeled ones
/// elsewhere, the per-digest hash cross-check on. The kem_server default
/// mix is all-RTL, so rtl_capable alone decides.
lac::Backend rig_backend(const SchemeCase& sc, RtlUnits& units, Shims* shims) {
  auto registry =
      std::make_shared<lac::KernelRegistry>(scheme::make_registry(*sc.profile));
  const auto& rtl = sc.profile->rtl_capable;
  const poly::MulTer512 mul = rtl[0] ? perf::rtl_mul_ter(units.mul)
                                     : registry->mul_ter().active();
  const bch::ChienStage chien = rtl[1] ? perf::rtl_chien(units.chien)
                                       : registry->chien().active();
  const hash::HashFn sha =
      rtl[2] ? perf::rtl_sha256(units.sha)
             : hash::HashFn([](ByteView d) { return hash::sha256(d); });
  if (rtl[3])
    registry->modq().install(perf::rtl_modq(units.barrett));
  registry->mul_ter().install(
      [shims, mul](const poly::Ternary& a, const poly::Coeffs& b, bool neg,
                   CycleLedger* ledger) {
        return shims->timed(shims->mul_ter, "slot.mul_ter",
                            [&] { return mul(a, b, neg, ledger); });
      });
  registry->chien().install([shims, chien](const bch::CodeSpec& spec,
                                           const bch::Locator& loc,
                                           CycleLedger* ledger) {
    return shims->timed(shims->chien, "slot.chien",
                        [&] { return chien(spec, loc, ledger); });
  });
  registry->sha256().install([shims, sha](ByteView data) {
    return shims->timed(shims->sha256, "slot.sha256",
                        [&] { return sha(data); });
  });
  lac::Backend b = lac::Backend::optimized_from(std::move(registry));
  b.verify_hash = true;
  return b;
}

using Metrics = std::map<std::string, double>;

/// Per-op level-3 samples of one scheme.
struct OpSamples {
  std::vector<double> wall, mul_ter, chien, sha256, mul_calls, chien_calls,
      sha_calls, covered;
  std::map<std::string, std::vector<double>> stage_self;
};

/// Level 4's stage-by-stage replay of encapsulation from the public
/// stage functions. Returns the key and ciphertext it derived.
lac::EncapsResult replay_encaps(const lac::Params& p, const lac::Backend& b,
                                const lac::KeyContext& ctx,
                                const hash::Seed& entropy, SpanLog& log) {
  const ByteView pk_hash(ctx.pk_hash.data(), ctx.pk_hash.size());
  hash::Seed m;
  {
    ScopedSpan s(log, "stage.hash");
    m = lac::derive_seed(entropy, kTagMessage);
  }
  const ByteView mv(m.data(), m.size());
  hash::Seed coins;
  hash::Digest key_bar;
  {
    ScopedSpan s(log, "stage.hash");
    coins = to_seed(lac::tagged_hash(kTagCoins, mv, pk_hash, b, nullptr));
  }
  {
    ScopedSpan s(log, "stage.hash");
    key_bar = lac::tagged_hash(kTagKeyBar, mv, pk_hash, b, nullptr);
  }
  bch::Message msg;
  std::copy(m.begin(), m.end(), msg.begin());
  lac::EncapsResult out;
  {
    ScopedSpan s(log, "stage.encrypt");
    out.ct = lac::encrypt(p, b, ctx, msg, coins);
  }
  Bytes ct_bytes;
  {
    ScopedSpan s(log, "stage.pack");
    ct_bytes = lac::serialize(p, out.ct);
  }
  hash::Digest ct_hash;
  {
    ScopedSpan s(log, "stage.hash");
    ct_hash = lac::tagged_hash(0x00, ct_bytes, {}, b, nullptr);
  }
  {
    ScopedSpan s(log, "stage.hash");
    out.key = lac::tagged_hash(0x00, ByteView(key_bar.data(), key_bar.size()),
                               ByteView(ct_hash.data(), ct_hash.size()), b,
                               nullptr);
  }
  return out;
}

/// Level 4's stage-by-stage replay of decapsulation (FO re-encryption and
/// implicit rejection included).
lac::SharedKey replay_decaps(const lac::Params& p, const lac::Backend& b,
                             const lac::KeyContext& ctx,
                             const lac::Ciphertext& ct, SpanLog& log) {
  const ByteView pk_hash(ctx.pk_hash.data(), ctx.pk_hash.size());
  lac::DecryptResult dec;
  {
    ScopedSpan s(log, "stage.decrypt");
    dec = lac::decrypt(p, b, ctx, ct);
  }
  const ByteView mv(dec.message.data(), dec.message.size());
  hash::Seed coins;
  hash::Digest key_bar;
  {
    ScopedSpan s(log, "stage.hash");
    coins = to_seed(lac::tagged_hash(kTagCoins, mv, pk_hash, b, nullptr));
  }
  {
    ScopedSpan s(log, "stage.hash");
    key_bar = lac::tagged_hash(kTagKeyBar, mv, pk_hash, b, nullptr);
  }
  lac::Ciphertext ct2;
  {
    ScopedSpan s(log, "stage.encrypt");
    ct2 = lac::encrypt(p, b, ctx, dec.message, coins);
  }
  Bytes ct_bytes;
  bool match = false;
  {
    ScopedSpan s(log, "stage.pack");
    ct_bytes = lac::serialize(p, ct);
    const Bytes ct2_bytes = lac::serialize(p, ct2);
    match = dec.ok && ct_equal(ct_bytes, ct2_bytes);
  }
  hash::Digest ct_hash;
  {
    ScopedSpan s(log, "stage.hash");
    ct_hash = lac::tagged_hash(0x00, ct_bytes, {}, b, nullptr);
  }
  ScopedSpan s(log, "stage.hash");
  const hash::Digest& first = match ? key_bar : ctx.z;
  return lac::tagged_hash(0x00, ByteView(first.data(), first.size()),
                          ByteView(ct_hash.data(), ct_hash.size()), b, nullptr);
}

/// Sum of the durations of `parent`'s direct children (the last spans in
/// the log), with the self time of each child and of the slot spans
/// inside it added up by name, so the breakdown sums to the covered time.
double covered_by_children(const SpanLog& log, u32 parent,
                           std::map<std::string, double>* by_name) {
  double covered = 0;
  for (std::size_t i = parent + 1; i < log.size(); ++i) {
    if (log[i].parent != parent) continue;
    double self = log[i].duration_us();
    covered += self;
    for (std::size_t j = i + 1; j < log.size(); ++j) {
      if (log[j].parent != i) continue;
      self -= log[j].duration_us();
      (*by_name)[log[j].name] += log[j].duration_us();
    }
    (*by_name)[log[i].name] += self;
  }
  return covered;
}

/// Levels 3 and 4 for one scheme: direct ops with slot shims, the
/// stage replay and attribution check, batched lanes, stage functions
/// and the scheme's set-up costs.
void measure_scheme(const SchemeCase& sc, const WorkloadSpec& workload,
                    u64 seed, SpanLog& log, Metrics& m, JsonObject& breakdown,
                    double* handshake_p50_us) {
  const lac::Params& p = *sc.params;
  const std::string s = sc.label;
  RtlUnits units;
  Shims shims;
  shims.log = &log;
  const lac::Backend backend = rig_backend(sc, units, &shims);
  const lac::Backend golden = scheme::golden_backend(*sc.profile);

  lac::KemKeyPair keys;
  m["setup." + s + ".keygen_us"] = median_us(5, [&] {
    keys = lac::kem_keygen(p, golden, key_seed(sc.key_id));
  });
  std::shared_ptr<const lac::KeyContext> ctx;
  m["setup." + s + ".context_build_us"] = median_us(5, [&] {
    ctx = std::make_shared<const lac::KeyContext>(
        lac::build_kem_context(p, backend, keys));
  });

  // The same seeded inputs as the workload, in the scheme's ct layout.
  WorkloadSpec inputs = workload;
  inputs.tamper_period = 1;  // every input carries a tamper recipe
  Schedule schedule(inputs, seed, p.n, p.ct_bytes());
  const bool slow = sc.profile->rtl_capable[0];  // RTL MUL TER steps clocks
  const int reps = slow ? 24 : 200;

  OpSamples enc, dec;
  std::vector<double> handshake;
  const auto slot_sample = [&](OpSamples& o, const SlotTally& m0,
                               const SlotTally& c0, const SlotTally& s0) {
    o.mul_ter.push_back(shims.mul_ter.us - m0.us);
    o.chien.push_back(shims.chien.us - c0.us);
    o.sha256.push_back(shims.sha256.us - s0.us);
    o.mul_calls.push_back(static_cast<double>(shims.mul_ter.calls - m0.calls));
    o.chien_calls.push_back(static_cast<double>(shims.chien.calls - c0.calls));
    o.sha_calls.push_back(static_cast<double>(shims.sha256.calls - s0.calls));
  };
  const auto replay_sample = [&](OpSamples& o, u32 top) {
    std::map<std::string, double> by_name;
    o.covered.push_back(covered_by_children(log, top, &by_name));
    for (const auto& [name, us] : by_name) o.stage_self[name].push_back(us);
  };

  for (int i = 0; i < reps; ++i) {
    const HandshakeInput in = schedule.next();
    // Alternate whether the op or its replay runs first, so warm caches
    // favour neither side of the attribution check.
    const bool replay_first = i % 2 == 1;
    const auto in_order = [replay_first](const auto& op, const auto& replay) {
      if (replay_first) {
        replay();
        op();
      } else {
        op();
        replay();
      }
    };

    lac::EncapsOutcome e;
    lac::EncapsResult re;
    double enc_us = 0;
    in_order(
        [&] {
          const SlotTally m0 = shims.mul_ter, c0 = shims.chien,
                          s0 = shims.sha256;
          const u32 span = log.open("lac.encaps", in.index);
          e = lac::encapsulate_checked(p, backend, *ctx, in.entropy);
          log.close(span);
          enc_us = log[span].duration_us();
          enc.wall.push_back(enc_us);
          slot_sample(enc, m0, c0, s0);
        },
        [&] {
          const u32 top = log.open("replay.encaps", in.index);
          re = replay_encaps(p, backend, *ctx, in.entropy, log);
          log.close(top);
          replay_sample(enc, top);
        });
    check(e.status == Status::kOk, s + " direct encaps status");
    check(re.key == e.result.key &&
              lac::serialize(p, re.ct) == lac::serialize(p, e.result.ct),
          s + " encaps replay reproduces the op bit for bit");

    lac::DecapsOutcome d;
    lac::SharedKey rk{};
    double dec_us = 0;
    in_order(
        [&] {
          const SlotTally m0 = shims.mul_ter, c0 = shims.chien,
                          s0 = shims.sha256;
          const u32 span = log.open("lac.decaps", in.index);
          d = lac::decapsulate_checked(p, backend, *ctx, e.result.ct);
          log.close(span);
          dec_us = log[span].duration_us();
          dec.wall.push_back(dec_us);
          slot_sample(dec, m0, c0, s0);
        },
        [&] {
          const u32 top = log.open("replay.decaps", in.index);
          rk = replay_decaps(p, backend, *ctx, e.result.ct, log);
          log.close(top);
          replay_sample(dec, top);
        });
    check(d.status == Status::kOk && d.key == e.result.key,
          s + " direct decaps: keys agree");
    check(rk == d.key, s + " decaps replay reproduces the op bit for bit");
    handshake.push_back(enc_us + dec_us);

    Bytes tampered = lac::serialize(p, e.result.ct);
    apply_tamper(in, tampered);
    const u32 span = log.open("lac.decaps_tampered", in.index);
    const lac::DecapsOutcome t = lac::decapsulate_checked(
        p, backend, *ctx, lac::deserialize_ct(p, tampered));
    log.close(span);
    check(t.status != Status::kOk && t.key != e.result.key,
          s + " direct tampered decaps: implicit rejection");
  }
  *handshake_p50_us = median(handshake);

  JsonObject scheme_breakdown;
  const char* op_names[2] = {"encaps", "decaps"};
  OpSamples* ops[2] = {&enc, &dec};
  for (int k = 0; k < 2; ++k) {
    const OpSamples& o = *ops[k];
    const std::string pre = "lac." + s + "." + op_names[k];
    const double wall = median(o.wall);
    m[pre + "_us"] = wall;
    const std::string slot = "slot." + s + "." + op_names[k] + ".";
    m[slot + "mul_ter_us"] = median(o.mul_ter);
    m[slot + "mul_ter_calls"] = median(o.mul_calls);
    m[slot + "sha256_us"] = median(o.sha256);
    m[slot + "sha256_calls"] = median(o.sha_calls);
    if (&lac::corrector_for(p) == &lac::bch_corrector()) {
      m[slot + "chien_us"] = median(o.chien);
      m[slot + "chien_calls"] = median(o.chien_calls);
    }
    const double share = (wall - median(o.covered)) / wall;
    m[pre + ".unattributed_share"] = share;
    check(std::abs(share) <= kAttributionTolerance,
          pre + " attribution: stage and slot self times cover the op "
                "within " + std::to_string(kAttributionTolerance));
    JsonObject op;
    op.num("wall_us", wall);
    for (const auto& [name, v] : o.stage_self)
      op.num(name + "_self_us", median(v));
    scheme_breakdown.raw(op_names[k], op.dump());
  }
  breakdown.raw(s, scheme_breakdown.dump());

  // Batched lanes: one 8-lane call through the SoA pipeline the service
  // uses for multi-request micro-batches.
  {
    std::vector<double> enc_lane, dec_lane;
    for (int r = 0; r < (slow ? 4 : 25); ++r) {
      std::vector<hash::Seed> entropies;
      for (int l = 0; l < 8; ++l) entropies.push_back(schedule.next().entropy);
      std::vector<lac::EncapsOutcome> outs;
      const double enc_us = time_us([&] {
        ScopedSpan span(log, "lac.encaps_batch8");
        outs = lac::encapsulate_batch(p, backend, *ctx, entropies);
      });
      enc_lane.push_back(enc_us / 8);
      std::vector<lac::Ciphertext> cts;
      for (const lac::EncapsOutcome& o : outs) cts.push_back(o.result.ct);
      std::vector<lac::DecapsOutcome> decs;
      const double dec_us = time_us([&] {
        ScopedSpan span(log, "lac.decaps_batch8");
        decs = lac::decapsulate_batch(p, backend, *ctx, cts);
      });
      dec_lane.push_back(dec_us / 8);
      bool agree = outs.size() == 8 && decs.size() == 8;
      for (std::size_t l = 0; agree && l < 8; ++l)
        agree = outs[l].status == Status::kOk &&
                decs[l].status == Status::kOk &&
                decs[l].key == outs[l].result.key;
      check(agree, s + " batched lanes: keys agree");
    }
    m["lac." + s + ".encaps_batch8_lane_us"] = median(enc_lane);
    m["lac." + s + ".decaps_batch8_lane_us"] = median(dec_lane);
  }

  // Stage functions on their own.
  std::vector<hash::Seed> seeds;
  for (int i = 0; i < 50; ++i) seeds.push_back(schedule.next().entropy);
  std::size_t next_seed = 0;
  m["pke." + s + ".sample_us"] = median_us(50, [&] {
    lac::sample_fixed_weight(seeds[next_seed++], p,
                             lac::HashImpl::kAccelerated);
  });
  {
    const hash::Seed msg = schedule.next().entropy;
    m["pke." + s + ".hash_us"] = median_us(100, [&] {
      lac::tagged_hash(kTagCoins, ByteView(msg.data(), msg.size()),
                       ByteView(ctx->pk_hash.data(), ctx->pk_hash.size()),
                       backend, nullptr);
    });
  }
}

// ---- level 4: kernels and BCH stages --------------------------------------

void measure_kernels(u64 seed, Metrics& m) {
  RtlUnits units;
  Rng rng(seed, 5);
  const lac::Params& lac128 = lac::Params::lac128();
  hash::Seed s{};
  for (auto& b : s) b = static_cast<u8>(rng.next());
  // Each multiplier gets its scheme's secret: mul_ter_sw_mod skips zero
  // coefficients, so the operand weight sets its cost.
  const poly::Ternary a = lac::sample_fixed_weight(s, lac128);
  const poly::Ternary a_lwr = lac::sample_fixed_weight(s, scheme::lwr::lwr512());
  poly::Coeffs b251(poly::kMulTerLength), b256(poly::kMulTerLength);
  for (std::size_t i = 0; i < b251.size(); ++i) {
    b251[i] = static_cast<u8>(rng.next() % poly::kQ);
    b256[i] = static_cast<u8>(rng.next());
  }
  const poly::MulTer512 rtl_mul = perf::rtl_mul_ter(units.mul);
  const poly::MulTer512 modeled = lac::modeled_mul_ter();
  const poly::MulTer512 modeled256 = lac::modeled_mul_ter_for(256);
  check(rtl_mul(a, b251, true, nullptr) == modeled(a, b251, true, nullptr),
        "kernel mul_ter: RTL equals the modeled unit");
  m["kernel.mul_ter.rtl_us"] =
      median_us(10, [&] { rtl_mul(a, b251, true, nullptr); });
  m["kernel.mul_ter.modeled_us"] =
      median_us(10, [&] { modeled(a, b251, true, nullptr); });
  m["kernel.mul_ter.modeled_q256_us"] =
      median_us(10, [&] { modeled256(a_lwr, b256, true, nullptr); });
  {
    const poly::MulTerBatchFn batch = poly::software_mul_ter_batch();
    poly::Ternary a8;
    poly::Coeffs b8;
    for (int l = 0; l < 8; ++l) {
      a8.insert(a8.end(), a.begin(), a.end());
      b8.insert(b8.end(), b251.begin(), b251.end());
    }
    m["kernel.mul_ter.batch8_lane_us"] =
        median_us(10, [&] {
          batch(a8, b8, 8, poly::kMulTerLength, true, nullptr);
        }) /
        8;
  }

  // BCH(511,367,16): a clean codeword and one with t message-bit errors.
  const bch::CodeSpec& spec = *lac128.code;
  bch::Message msg{};
  for (auto& byte : msg) byte = static_cast<u8>(rng.next());
  const bch::BitVec clean = bch::encode_ct(spec, msg);
  bch::BitVec noisy = clean;
  for (int e = 0; e < spec.t; ++e)
    noisy[spec.message_degree(e * 15 + 3)] ^= 1;
  const bch::Locator loc = bch::berlekamp_massey(
      spec, bch::syndromes(spec, noisy, bch::Flavor::kConstantTime),
      bch::Flavor::kConstantTime);
  const bch::ChienStage rtl_chien = perf::rtl_chien(units.chien);
  const bch::ChienStage modeled_chien = lac::modeled_chien();
  m["kernel.chien.rtl_us"] =
      median_us(20, [&] { rtl_chien(spec, loc, nullptr); });
  m["kernel.chien.modeled_us"] =
      median_us(20, [&] { modeled_chien(spec, loc, nullptr); });
  m["bch.encode_us"] = median_us(50, [&] { bch::encode_ct(spec, msg); });
  bch::DecodeResult d0, dt;
  m["bch.decode_0err_us"] = median_us(20, [&] {
    d0 = bch::decode_with_chien(spec, clean, bch::Flavor::kConstantTime,
                                rtl_chien);
  });
  m["bch.decode_terr_us"] = median_us(20, [&] {
    dt = bch::decode_with_chien(spec, noisy, bch::Flavor::kConstantTime,
                                rtl_chien);
  });
  check(d0.ok && d0.message == msg && dt.ok && dt.message == msg &&
            dt.errors_corrected == spec.t,
        "bch decode corrects t errors");

  // SHA-256 on a 65-byte FO hash input (tag || 32-byte m || H(pk)).
  Bytes block(65);
  for (auto& byte : block) byte = static_cast<u8>(rng.next());
  const hash::HashFn rtl_sha = perf::rtl_sha256(units.sha);
  check(rtl_sha(block) == hash::sha256(block),
        "kernel sha256: RTL equals software");
  m["kernel.sha256.rtl_us"] = median_us(200, [&] { rtl_sha(block); });
  m["kernel.sha256.sw_us"] = median_us(200, [&] { hash::sha256(block); });
}

// ---- services: set-up, prober, retry path, shadow verification ------------

void measure_service_costs(u64 seed, Metrics& m) {
  std::vector<double> ctor_us;
  for (int i = 0; i < 3; ++i) {
    std::unique_ptr<service::KemService> built;
    ctor_us.push_back(time_us([&] {
      built = std::make_unique<service::KemService>(kem_server_config());
    }));
  }
  m["setup.service_ctor_us"] = median(ctor_us);

  // A one-worker service with the prober off: one probe_now() is one KAT
  // sweep, and a tampered decaps shows its full retry cost undisturbed.
  service::ServiceConfig cfg = kem_server_config();
  cfg.workers = 1;
  cfg.enable_prober = false;
  service::KemService svc(cfg);
  m["fault.kat_sweep_us"] = median_us(10, [&] { svc.probe_now(); });

  for (const SchemeCase& sc : kSchemes) {
    const lac::Params& p = *sc.params;
    const WorkloadSpec tamper_all{"tamper", sc.key_id, false, 0.0, 1};
    Schedule schedule(tamper_all, seed, p.n, p.ct_bytes());
    std::vector<double> samples;
    for (int i = 0; i < (sc.profile->rtl_capable[0] ? 5 : 20); ++i) {
      const HandshakeInput in = schedule.next();
      service::KemRequest enc;
      enc.op = service::OpKind::kEncaps;
      enc.entropy = in.entropy;
      enc.key_id = sc.key_id;
      const service::KemResponse er = svc.submit(enc).get();
      Bytes ct = lac::serialize(p, er.encaps.ct);
      apply_tamper(in, ct);
      service::KemRequest dec;
      dec.op = service::OpKind::kDecaps;
      dec.ct = lac::deserialize_ct(p, ct);
      dec.key_id = sc.key_id;
      service::KemResponse dr;
      samples.push_back(time_us([&] { dr = svc.submit(dec).get(); }));
      check(er.status == Status::kOk && dr.key != er.encaps.key,
            std::string(sc.label) + " service tampered decaps: rejected");
    }
    m[std::string("lac.") + sc.label + ".decaps_tampered_us"] = median(samples);
  }
  svc.stop();

  // Shadow re-execution on the golden models (verify/), LAC-128.
  const lac::Params& p = lac::Params::lac128();
  const lac::Backend golden = scheme::golden_backend(scheme::SchemeProfile::lac());
  const lac::KemKeyPair keys = lac::kem_keygen(p, golden, key_seed(0));
  const hash::Seed entropy = Schedule(*find_workload("lac-handshake"), seed,
                                      p.n, p.ct_bytes())
                                 .next()
                                 .entropy;
  const lac::EncapsOutcome served =
      lac::encapsulate_checked(p, golden, keys.pk, entropy);
  verify::ShadowResult shadow;
  m["verify.lac128.shadow_encaps_us"] = median_us(5, [&] {
    shadow = verify::shadow_encaps(p, golden, keys.pk, entropy, served.status,
                                   served.result);
  });
  check(!shadow.diverged, "shadow encaps agrees with golden");
  m["verify.lac128.shadow_decaps_us"] = median_us(5, [&] {
    shadow = verify::shadow_decaps(p, golden, keys, served.result.ct,
                                   Status::kOk, served.result.key);
  });
  check(!shadow.diverged, "shadow decaps agrees with golden");
}

// ---- level 2: the workload through an in-process KemService ---------------

struct ServiceRun {
  double handshake_p50_us = 0;
  double attempts_per_request = 0;
  service::CountersSnapshot delta;
  double window_s = 0;
};

ServiceRun drive_service(const WorkloadSpec& spec, u64 seed, double window_s,
                         SpanLog& log) {
  const lac::Params& p =
      spec.key_id == 0 ? lac::Params::lac128() : scheme::lwr::lwr512();
  struct Done {
    u64 index;
    bool decaps;
    u64 t_ns;
    service::KemResponse r;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Done> done;
  // Declared after the completion queue: the service (and its worker
  // threads invoking the callbacks) is destroyed first.
  service::KemService svc(kem_server_config());

  struct Hs {
    HandshakeInput in;
    u64 start_ns = 0, enc_sent_ns = 0, enc_done_ns = 0, dec_sent_ns = 0;
    lac::SharedKey key{};
  };
  std::map<u64, Hs> inflight;
  Schedule schedule(spec, seed, p.n, p.ct_bytes());
  HandshakeInput next = schedule.next();
  const auto submit = [&](u64 index, service::KemRequest req) {
    req.key_id = spec.key_id;
    const bool decaps = req.op == service::OpKind::kDecaps;
    svc.submit_with_callback(std::move(req), [&, index, decaps](
                                                 service::KemResponse r) {
      const u64 t = now_ns();
      {
        std::lock_guard<std::mutex> lock(mu);
        done.push_back({index, decaps, t, std::move(r)});
      }
      cv.notify_one();
    });
  };
  const auto start = [&](HandshakeInput in, u64 start_ns) {
    Hs hs;
    hs.in = in;
    hs.start_ns = start_ns;
    hs.enc_sent_ns = now_ns();
    const u64 index = in.index;
    inflight.emplace(index, hs);
    service::KemRequest req;
    req.op = service::OpKind::kEncaps;
    req.entropy = in.entropy;
    submit(index, std::move(req));
  };

  const u64 t0 = now_ns();
  const u64 win_start = t0 + 500'000'000;
  const u64 win_end = win_start + static_cast<u64>(window_s * 1e9);
  const auto in_window = [&](u64 t) { return t >= win_start && t < win_end; };
  if (!spec.open_loop)
    for (std::size_t c = 0; c < kConnections; ++c)
      start(schedule.next(), now_ns());

  std::vector<double> latency;
  u64 traced = 0;
  double attempts = 0, responses = 0;
  service::CountersSnapshot c_start, c_end;
  bool started = false, ended = false;
  for (;;) {
    u64 t = now_ns();
    if (!started && t >= win_start) {
      c_start = svc.counters();
      started = true;
    }
    if (!ended && t >= win_end) {
      c_end = svc.counters();
      ended = true;
    }
    if (ended && inflight.empty()) break;
    if (spec.open_loop) {
      while (t < win_end) {
        const u64 due = t0 + static_cast<u64>(next.due_s * 1e9);
        if (due > t) break;
        start(next, due);
        next = schedule.next();
      }
    }
    std::deque<Done> batch;
    {
      std::unique_lock<std::mutex> lock(mu);
      u64 wake = t + 10'000'000;
      if (spec.open_loop && t < win_end)
        wake = std::min(wake, t0 + static_cast<u64>(next.due_s * 1e9));
      if (!started) wake = std::min(wake, win_start);
      if (!ended) wake = std::min(wake, win_end);
      cv.wait_for(lock,
                  std::chrono::nanoseconds(wake > t ? wake - t : 0),
                  [&] { return !done.empty(); });
      batch.swap(done);
    }
    for (Done& d : batch) {
      auto it = inflight.find(d.index);
      if (it == inflight.end()) continue;
      Hs& hs = it->second;
      if (in_window(hs.start_ns)) {
        attempts += d.r.attempts;
        responses += 1;
      }
      // A shed or refused op fails the handshake but proves nothing about
      // its keys; decaps answers with the implicit-rejection key carry
      // kRejected / kDecodeFailure.
      const bool answered =
          d.r.status == Status::kOk ||
          (d.decaps && (d.r.status == Status::kRejected ||
                        d.r.status == Status::kDecodeFailure));
      check(answered, d.decaps ? "service decaps status"
                               : "service encaps status");
      if (answered && !d.decaps) {
        hs.enc_done_ns = d.t_ns;
        hs.key = d.r.encaps.key;
        Bytes ct = lac::serialize(p, d.r.encaps.ct);
        apply_tamper(hs.in, ct);
        service::KemRequest req;
        req.op = service::OpKind::kDecaps;
        req.ct = lac::deserialize_ct(p, ct);
        hs.dec_sent_ns = now_ns();
        submit(d.index, std::move(req));
        continue;
      }
      const bool same = d.r.key == hs.key;
      if (answered)
        check(hs.in.tampered ? !same : same,
              hs.in.tampered ? "service tampered handshake: keys differ"
                             : "service honest handshake: keys agree");
      if (answered && in_window(hs.start_ns) && !hs.in.tampered)
        latency.push_back(to_us(d.t_ns - hs.start_ns));
      if (answered && in_window(hs.start_ns) &&
          traced++ < kMaxTracedHandshakes) {
        const u32 parent =
            log.add(hs.in.tampered ? "service.handshake_tampered"
                                   : "service.handshake",
                    hs.start_ns, d.t_ns, kNoParent, d.index);
        log.add("service.encaps", hs.enc_sent_ns, hs.enc_done_ns, parent,
                d.index);
        log.add("service.decaps", hs.dec_sent_ns, d.t_ns, parent, d.index);
      }
      inflight.erase(it);
      if (!spec.open_loop && now_ns() < win_end)
        start(schedule.next(), now_ns());
    }
  }
  svc.drain();

  ServiceRun run;
  run.handshake_p50_us = median(latency);
  run.attempts_per_request = responses > 0 ? attempts / responses : 0;
  run.window_s = window_s;
  run.delta.submitted = c_end.submitted - c_start.submitted;
  run.delta.completed = c_end.completed - c_start.completed;
  run.delta.micro_batches = c_end.micro_batches - c_start.micro_batches;
  run.delta.batched_lanes = c_end.batched_lanes - c_start.batched_lanes;
  run.delta.rejected_overload =
      c_end.rejected_overload - c_start.rejected_overload;
  run.delta.rejected_deadline =
      c_end.rejected_deadline - c_start.rejected_deadline;
  run.delta.shed_at_shutdown = c_end.shed_at_shutdown - c_start.shed_at_shutdown;
  run.delta.probes = c_end.probes - c_start.probes;
  return run;
}

}  // namespace

int run_layers(const LayersOptions& opt) {
  SpanLog log;
  Metrics m;
  JsonObject breakdown;

  const ServiceRun svc = drive_service(*opt.spec, opt.seed, opt.service_s, log);

  double scheme_handshake_p50[2] = {0, 0};
  for (std::size_t i = 0; i < 2; ++i)
    measure_scheme(kSchemes[i], *opt.spec, opt.seed, log, m, breakdown,
                   &scheme_handshake_p50[i]);
  measure_kernels(opt.seed, m);
  measure_service_costs(opt.seed, m);

  const service::CountersSnapshot& d = svc.delta;
  const double completed = static_cast<double>(d.completed);
  m["service.overhead_p50_us"] =
      svc.handshake_p50_us - scheme_handshake_p50[opt.spec->key_id];
  m["service.mean_batch_size"] =
      d.micro_batches ? completed / static_cast<double>(d.micro_batches) : 0;
  m["service.batched_lane_share"] =
      completed > 0 ? static_cast<double>(d.batched_lanes) / completed : 0;
  m["service.shed_share"] =
      d.submitted ? static_cast<double>(d.rejected_overload +
                                        d.rejected_deadline +
                                        d.shed_at_shutdown) /
                        static_cast<double>(d.submitted)
                  : 0;
  m["service.attempts_per_request"] = svc.attempts_per_request;
  m["service.probe_busy_share"] = static_cast<double>(d.probes) *
                                  m["fault.kat_sweep_us"] /
                                  (svc.window_s * 1e6);

  JsonObject metrics;
  for (const auto& [name, value] : m) metrics.num(name, value);
  std::string failures = "[";
  for (const auto& [what, times] : g_failures) {
    if (failures.size() > 1) failures += ",";
    failures += json_quote(what + " (failed " + std::to_string(times) +
                           "x)");
  }
  failures += "]";

  JsonObject out;
  out.raw("metrics", metrics.dump())
      .raw("failed_checks", failures)
      .num("service_handshake_p50_us", svc.handshake_p50_us)
      .raw("breakdown", breakdown.dump())
      .num("spans", static_cast<double>(log.size()));
  std::cout << out.dump() << "\n";
  if (!opt.spans_path.empty() && !log.write_jsonl(opt.spans_path)) {
    std::cerr << "hsbench: cannot write spans to " << opt.spans_path << "\n";
    return 2;
  }
  return 0;
}

int run_model() {
  // table2_kem_cycles' per-scheme block: golden backend, every seed byte
  // 0x42, one keygen, one encaps, one decaps.
  JsonObject out;
  for (const SchemeCase& sc : kSchemes) {
    const lac::Params& p = *sc.params;
    const lac::Backend backend = scheme::golden_backend(*sc.profile);
    hash::Seed seed{};
    seed.fill(0x42);
    CycleLedger en, de;
    const lac::KemKeyPair keys = lac::kem_keygen(p, backend, seed);
    const lac::EncapsResult enc =
        lac::encapsulate(p, backend, keys.pk, seed, &en);
    lac::decapsulate(p, backend, keys, enc.ct, &de);
    out.num(std::string("model.") + sc.label + ".encaps_cycles",
            static_cast<double>(en.total()))
        .num(std::string("model.") + sc.label + ".decaps_cycles",
             static_cast<double>(de.total()));
  }
  std::cout << out.dump() << "\n";
  return 0;
}

}  // namespace hsbench
