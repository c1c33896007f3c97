// Bit-exactness tests for the arena-backed PMF kernels (src/prob/kernels)
// and the prefix-sum CDF cache.
//
// The destination-passing kernels and the binary-search CDF paths promise
// BYTE-identical results to the original scalar algorithms.  This file
// retains straight-line naive reference implementations of those algorithms
// (the fully clamped O(n·m) convolution loop, erase-based trim+normalize,
// linear CDF scans) and drives thousands of randomized cases through both
// sides, comparing every bin with exact floating-point equality.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "prob/arena.h"
#include "prob/kernels.h"
#include "prob/pmf.h"
#include "prob/rng.h"

namespace {

using hcs::prob::DiscretePmf;
using hcs::prob::PmfArena;
using hcs::prob::Rng;

// --- Naive reference implementations (the seed's algorithms) -----------------

struct RawPmf {
  std::int64_t first = 0;
  std::vector<double> probs;
  double width = 1.0;
};

/// The seed's trimAndNormalize: find bounds, two erase() shifts, a separate
/// accumulate over the trimmed range, then an in-place divide.
RawPmf naiveTrimNormalize(std::int64_t first, std::vector<double> probs,
                          double width) {
  auto isPositive = [](double p) { return p > 0.0; };
  auto head = std::find_if(probs.begin(), probs.end(), isPositive);
  EXPECT_NE(head, probs.end());
  auto tail = std::find_if(probs.rbegin(), probs.rend(), isPositive).base();
  first += std::distance(probs.begin(), head);
  probs.erase(tail, probs.end());
  probs.erase(probs.begin(), head);
  const double total = std::accumulate(probs.begin(), probs.end(), 0.0);
  for (double& p : probs) p /= total;
  return RawPmf{first, std::move(probs), width};
}

/// The fully clamped convolution loop — every (i, j) pair visited in
/// lexicographic order, no zero-row skip, no branch-free fast path.
RawPmf naiveConvolveRaw(const RawPmf& a, const DiscretePmf& b,
                        std::size_t maxBins) {
  const std::size_t fullSize = a.probs.size() + b.size() - 1;
  const std::size_t outSize =
      std::min(fullSize, std::max<std::size_t>(maxBins, 1));
  std::vector<double> out(outSize, 0.0);
  for (std::size_t i = 0; i < a.probs.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      const std::size_t k = std::min(i + j, outSize - 1);
      out[k] += a.probs[i] * b.probs()[j];
    }
  }
  return naiveTrimNormalize(a.first + b.firstBin(), std::move(out), a.width);
}

RawPmf asRaw(const DiscretePmf& a) {
  return RawPmf{a.firstBin(),
                std::vector<double>(a.probs().begin(), a.probs().end()),
                a.binWidth()};
}

RawPmf naiveConvolve(const DiscretePmf& a, const DiscretePmf& b,
                     std::size_t maxBins) {
  return naiveConvolveRaw(asRaw(a), b, maxBins);
}

RawPmf naiveCapped(const DiscretePmf& a, std::size_t maxBins) {
  if (a.size() <= maxBins) {
    return RawPmf{a.firstBin(),
                  std::vector<double>(a.probs().begin(), a.probs().end()),
                  a.binWidth()};
  }
  std::vector<double> out(a.probs().begin(),
                          a.probs().begin() +
                              static_cast<std::ptrdiff_t>(maxBins));
  out.back() += std::accumulate(
      a.probs().begin() + static_cast<std::ptrdiff_t>(maxBins),
      a.probs().end(), 0.0);
  return naiveTrimNormalize(a.firstBin(), std::move(out), a.binWidth());
}

RawPmf naiveConditionalRemaining(const DiscretePmf& a, double elapsed) {
  const double width = a.binWidth();
  const auto elapsedBins =
      static_cast<std::int64_t>(std::floor(elapsed / width + 1e-9));
  const std::int64_t keepFrom = elapsedBins + 1;
  if (keepFrom > a.lastBin()) {
    return RawPmf{1, {1.0}, width};
  }
  const std::int64_t skip = std::max<std::int64_t>(keepFrom - a.firstBin(), 0);
  std::vector<double> kept(a.probs().begin() + skip, a.probs().end());
  return naiveTrimNormalize(a.firstBin() + skip - elapsedBins,
                            std::move(kept), width);
}

/// The seed's linear cdf scan.
double naiveCdfShiftedBy(const DiscretePmf& pmf, std::int64_t bins, double t) {
  const double cutoff = t + pmf.binWidth() * 1e-6;
  double acc = 0.0;
  for (std::size_t i = 0; i < pmf.size(); ++i) {
    const double timeAtBin =
        static_cast<double>(pmf.firstBin() + bins +
                            static_cast<std::int64_t>(i)) *
        pmf.binWidth();
    if (timeAtBin >= cutoff) break;
    acc += pmf.probs()[i];
  }
  return std::min(acc, 1.0);
}

double naiveQuantile(const DiscretePmf& pmf, double p) {
  double acc = 0.0;
  for (std::size_t i = 0; i < pmf.size(); ++i) {
    acc += pmf.probs()[i];
    if (acc + DiscretePmf::kMassTolerance >= p) return pmf.timeAt(i);
  }
  return pmf.maxTime();
}

/// Bit-exact comparison: every bin must match to the last ulp.
void expectBitIdentical(const DiscretePmf& got, const RawPmf& want,
                        const char* what) {
  ASSERT_EQ(got.firstBin(), want.first) << what;
  ASSERT_EQ(got.size(), want.probs.size()) << what;
  ASSERT_EQ(got.binWidth(), want.width) << what;
  for (std::size_t i = 0; i < want.probs.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got.probs()[i], &want.probs[i], sizeof(double)), 0)
        << what << ": bin " << i << " got " << got.probs()[i] << " want "
        << want.probs[i];
  }
}

DiscretePmf randomPmf(Rng& rng, int maxBinsInSupport = 120,
                      double width = 1.0) {
  const int size = static_cast<int>(rng.uniformInt(1, maxBinsInSupport));
  std::vector<double> probs;
  probs.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) {
    // ~25% interior zero bins exercise the zero-row skip and trimming.
    const double p =
        rng.uniform01() < 0.25 ? 0.0 : rng.uniform(1e-6, 1.0);
    probs.push_back(p);
  }
  // Positive ends so the support is exactly [0, size).
  probs.front() = rng.uniform(0.1, 1.0);
  probs.back() = rng.uniform(0.1, 1.0);
  const auto first = rng.uniformInt(0, 120) - 60;  // negative offsets too
  return DiscretePmf(first, std::move(probs), width);
}

// --- Convolution -------------------------------------------------------------

TEST(KernelBitExactness, ConvolveMatchesNaiveReference) {
  Rng rng(1001);
  PmfArena arena;
  int tiledCases = 0;
  for (int c = 0; c < 600; ++c) {
    const DiscretePmf a = randomPmf(rng);
    const DiscretePmf b = randomPmf(rng);
    if (a.size() * b.size() >= 512) ++tiledCases;
    const RawPmf want = naiveConvolve(a, b, DiscretePmf::kDefaultMaxBins);
    expectBitIdentical(a.convolve(b), want, "member convolve");
    expectBitIdentical(hcs::prob::convolveInto(arena, a, b), want,
                       "convolveInto");
  }
  // The random mix must actually exercise the tiled (register-blocked) path.
  EXPECT_GT(tiledCases, 100);
}

TEST(KernelBitExactness, CappedConvolveFoldsIdentically) {
  Rng rng(1002);
  PmfArena arena;
  for (int c = 0; c < 400; ++c) {
    const DiscretePmf a = randomPmf(rng);
    const DiscretePmf b = randomPmf(rng);
    // Caps from "absurdly tight" to "just above full size".
    const std::size_t full = a.size() + b.size() - 1;
    const std::size_t cap = static_cast<std::size_t>(
        rng.uniformInt(1, static_cast<int>(full) + 4));
    const RawPmf want = naiveConvolve(a, b, cap);
    expectBitIdentical(a.convolve(b, cap), want, "member capped convolve");
    expectBitIdentical(hcs::prob::convolveInto(arena, a, b, cap), want,
                       "capped convolveInto");
  }
}

TEST(KernelBitExactness, ConvolveInPlaceChainsMatchFoldedNaive) {
  Rng rng(1003);
  PmfArena arena;
  for (int c = 0; c < 50; ++c) {
    DiscretePmf acc = randomPmf(rng, 40);
    RawPmf want = asRaw(acc);
    for (int step = 0; step < 6; ++step) {
      const DiscretePmf pet = randomPmf(rng, 40);
      want = naiveConvolveRaw(want, pet, DiscretePmf::kDefaultMaxBins);
      hcs::prob::convolveInPlace(arena, acc, pet);
      expectBitIdentical(acc, want, "convolveInPlace chain");
    }
  }
}

TEST(KernelBitExactness, TileBoundarySizesAreExact) {
  // Sizes straddling the 16-bin tile width and the tiled-kernel threshold.
  Rng rng(1004);
  PmfArena arena;
  for (std::size_t na : {1u, 2u, 15u, 16u, 17u, 31u, 33u, 48u, 64u}) {
    for (std::size_t nb : {1u, 7u, 8u, 16u, 17u, 32u, 65u}) {
      std::vector<double> pa(na), pb(nb);
      for (double& p : pa) p = rng.uniform(0.01, 1.0);
      for (double& p : pb) p = rng.uniform(0.01, 1.0);
      const DiscretePmf a(-3, std::move(pa));
      const DiscretePmf b(5, std::move(pb));
      const RawPmf want = naiveConvolve(a, b, DiscretePmf::kDefaultMaxBins);
      expectBitIdentical(hcs::prob::convolveInto(arena, a, b), want,
                         "tile boundary");
    }
  }
}

// --- capped / conditionalRemaining / pointMass -------------------------------

TEST(KernelBitExactness, CappedIntoMatchesNaive) {
  Rng rng(1005);
  PmfArena arena;
  for (int c = 0; c < 400; ++c) {
    const DiscretePmf a = randomPmf(rng);
    const std::size_t cap = static_cast<std::size_t>(
        rng.uniformInt(1, static_cast<int>(a.size()) + 4));
    const RawPmf want = naiveCapped(a, cap);
    expectBitIdentical(a.capped(cap), want, "member capped");
    expectBitIdentical(hcs::prob::cappedInto(arena, a, cap), want,
                       "cappedInto");
  }
}

TEST(KernelBitExactness, ConditionalRemainingIntoMatchesNaive) {
  Rng rng(1006);
  PmfArena arena;
  for (int c = 0; c < 500; ++c) {
    const DiscretePmf a = randomPmf(rng);
    // Elapsed from before the support to past its end (the overdue branch);
    // supports may sit entirely below zero (negative offsets).
    const double elapsed = rng.uniform(0.0, std::max(0.0, a.maxTime()) + 5.0);
    const RawPmf want = naiveConditionalRemaining(a, elapsed);
    expectBitIdentical(a.conditionalRemaining(elapsed), want,
                       "member conditionalRemaining");
    expectBitIdentical(
        hcs::prob::conditionalRemainingInto(arena, a, elapsed), want,
        "conditionalRemainingInto");
    // The fused re-anchoring shift must equal shifted() exactly.
    const std::int64_t shift = rng.uniformInt(0, 40) - 20;
    const DiscretePmf anchored =
        hcs::prob::conditionalRemainingInto(arena, a, elapsed, shift);
    EXPECT_EQ(anchored, a.conditionalRemaining(elapsed).shifted(shift));
  }
}

TEST(KernelBitExactness, PointMassIntoMatchesConstructor) {
  PmfArena arena;
  for (std::int64_t bin : {-7, 0, 3, 1000}) {
    EXPECT_EQ(hcs::prob::pointMassInto(arena, bin, 0.5),
              DiscretePmf(bin, {1.0}, 0.5));
  }
  EXPECT_THROW(hcs::prob::pointMassInto(arena, 0, 0.0),
               std::invalid_argument);
}

// --- Prefix-sum CDF cache ----------------------------------------------------

TEST(PrefixCdf, CdfQuantileSampleAreBitIdenticalWithAndWithoutCache) {
  Rng rng(1007);
  for (int c = 0; c < 500; ++c) {
    const DiscretePmf plain = randomPmf(rng);
    DiscretePmf cached = plain;
    ASSERT_FALSE(cached.hasCdfCache());
    cached.ensureCdfCache();
    ASSERT_TRUE(cached.hasCdfCache());
    // Probe around the support, at bin edges, and far outside.
    for (int probe = 0; probe < 12; ++probe) {
      const double t =
          rng.uniform(plain.minTime() - 3.0, plain.maxTime() + 3.0);
      const std::int64_t shift = rng.uniformInt(0, 60) - 30;
      ASSERT_EQ(cached.cdf(t), naiveCdfShiftedBy(plain, 0, t));
      ASSERT_EQ(cached.cdf(t), plain.cdf(t));
      ASSERT_EQ(cached.cdfShiftedBy(shift, t),
                naiveCdfShiftedBy(plain, shift, t));
      ASSERT_EQ(cached.cdfShiftedBy(shift, t), plain.cdfShiftedBy(shift, t));
    }
    for (std::size_t i = 0; i < plain.size(); ++i) {
      const double edge = plain.timeAt(i);
      ASSERT_EQ(cached.cdf(edge), plain.cdf(edge));
    }
    for (int probe = 0; probe < 12; ++probe) {
      const double p = rng.uniform01();
      ASSERT_EQ(cached.quantile(p), naiveQuantile(plain, p));
      ASSERT_EQ(cached.quantile(p), plain.quantile(p));
    }
    ASSERT_EQ(cached.quantile(0.0), plain.quantile(0.0));
    ASSERT_EQ(cached.quantile(1.0), plain.quantile(1.0));
    // Identical inverse-CDF sampling: same rng stream, same draws.
    Rng sampleA(42 + static_cast<std::uint64_t>(c));
    Rng sampleB(42 + static_cast<std::uint64_t>(c));
    for (int draw = 0; draw < 8; ++draw) {
      ASSERT_EQ(cached.sample(sampleA), plain.sample(sampleB));
    }
  }
}

TEST(PrefixCdf, CopiesDropTheCacheAndEqualityIgnoresIt) {
  const DiscretePmf a(2, {0.25, 0.5, 0.25});
  a.ensureCdfCache();
  const DiscretePmf copy = a;
  EXPECT_FALSE(copy.hasCdfCache());
  EXPECT_EQ(copy, a);  // derived cache state does not affect equality
  DiscretePmf assigned(0, {1.0});
  assigned.ensureCdfCache();
  assigned = a;  // stale table must not survive the assignment
  EXPECT_FALSE(assigned.hasCdfCache());
  EXPECT_EQ(assigned, a);
  // Moves carry the table along (the distribution moves with it).
  DiscretePmf b(2, {0.25, 0.5, 0.25});
  b.ensureCdfCache();
  const DiscretePmf moved = std::move(b);
  EXPECT_TRUE(moved.hasCdfCache());
  EXPECT_EQ(moved.cdf(3.0), 0.75);
}

TEST(PrefixCdf, ConcurrentEnsureIsSafe) {
  Rng rng(1008);
  const DiscretePmf pmf = randomPmf(rng, 500);
  const double probe = pmf.minTime() + 0.6 * (pmf.maxTime() - pmf.minTime());
  const double want = pmf.cdf(probe);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      pmf.ensureCdfCache();
      for (int i = 0; i < 100; ++i) {
        if (pmf.cdf(probe) != want) std::abort();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(pmf.hasCdfCache());
  EXPECT_EQ(pmf.cdf(probe), want);
}

// --- Batched Eq. 2 -----------------------------------------------------------

TEST(SuccessProbabilityBatch, MatchesPerPmfEvaluation) {
  Rng rng(1009);
  std::vector<DiscretePmf> pcts;
  for (int i = 0; i < 16; ++i) pcts.push_back(randomPmf(rng));
  std::vector<const DiscretePmf*> ptrs;
  for (const DiscretePmf& p : pcts) ptrs.push_back(&p);
  for (int probe = 0; probe < 50; ++probe) {
    const double deadline = rng.uniform(-40.0, 120.0);
    const std::vector<double> got =
        hcs::prob::successProbabilityBatch(ptrs, deadline);
    ASSERT_EQ(got.size(), pcts.size());
    for (std::size_t i = 0; i < pcts.size(); ++i) {
      ASSERT_EQ(got[i], pcts[i].successProbability(deadline));
    }
  }
}

// --- Arena -------------------------------------------------------------------

// --- Certified chance decisions ---------------------------------------------

using hcs::prob::ChanceStage;

/// The staged decision of `convolveInto(a, b).cdfShiftedBy(0, t) <= bar`
/// for two materialized PMFs.
hcs::prob::CertifiedChance certifiedConvolvedChance(PmfArena& arena,
                                                    const DiscretePmf& a,
                                                    const DiscretePmf& b,
                                                    double t, double bar) {
  return hcs::prob::certifiedChance(
      a.firstBin() + b.firstBin(), a.lastBin() + b.lastBin(), a.binWidth(), t,
      bar,
      [&] {
        return hcs::prob::convolvedCdfEstimate(a.probs(), a.firstBin(),
                                               b.cdfTable(), b.firstBin(),
                                               a.binWidth(), t);
      },
      [&] { return hcs::prob::convolveInto(arena, a, b).cdfShiftedBy(0, t); });
}

/// The forward-error bound kCertifiedChanceMargin's comment derives for one
/// uncapped convolution of N = |a| + |b| − 1 bins: ≈ 5·N·u.
double documentedEstimateBound(const DiscretePmf& a, const DiscretePmf& b) {
  return 5.0 * static_cast<double>(a.size() + b.size() - 1) * 0x1p-53;
}

/// Deadlines the decision must get right: random ones around the joint
/// support, grid points, cutoffs landing exactly on a grid point, and one
/// ulp either side of each.
std::vector<double> probeDeadlines(Rng& rng, const DiscretePmf& a,
                                   const DiscretePmf& b) {
  const double w = a.binWidth();
  const std::int64_t lo = a.firstBin() + b.firstBin();
  const std::int64_t hi = a.lastBin() + b.lastBin();
  std::vector<double> ts;
  for (int k = 0; k < 3; ++k) {
    ts.push_back(rng.uniform(static_cast<double>(lo - 2) * w,
                             static_cast<double>(hi + 2) * w));
    const double grid = static_cast<double>(rng.uniformInt(lo - 1, hi + 1)) * w;
    for (const double t : {grid, grid - w * 1e-6}) {
      ts.push_back(t);
      ts.push_back(std::nextafter(t, -1e300));
      ts.push_back(std::nextafter(t, 1e300));
    }
  }
  return ts;
}

/// Bars at, one ulp around, and within 1e-12 … 2e-9 of the exact chance,
/// plus a random one.
std::vector<double> probeBars(Rng& rng, double exact) {
  return {exact,
          std::nextafter(exact, -1.0),
          std::nextafter(exact, 2.0),
          exact - 1e-12,
          exact + 1e-12,
          exact + rng.uniform(-1e-12, 1e-12),
          exact - 5e-10,
          exact + 5e-10,
          exact - 2e-9,
          exact + 2e-9,
          rng.uniform01()};
}

TEST(CertifiedChance, StagedDecisionsEqualExactConvolutionDecisions) {
  Rng rng(1101);
  PmfArena arena;
  std::size_t stages[3] = {};
  for (int c = 0; c < 3000; ++c) {
    const double width = std::array{1.0, 0.1, 0.25, 0.3}[c % 4];
    // Every fifth operand is a point mass; first bins go negative too.
    const auto operand = [&] {
      if (rng.uniform01() < 0.2) {
        return DiscretePmf(rng.uniformInt(-40, 40), {1.0}, width);
      }
      return randomPmf(rng, 120, width);
    };
    const DiscretePmf a = operand();
    const DiscretePmf b = operand();
    for (const double t : probeDeadlines(rng, a, b)) {
      const double exact =
          hcs::prob::convolveInto(arena, a, b).cdfShiftedBy(0, t);
      const double estimate = hcs::prob::convolvedCdfEstimate(
          a.probs(), a.firstBin(), b.cdfTable(), b.firstBin(), width, t);
      ASSERT_LE(std::abs(estimate - exact), documentedEstimateBound(a, b))
          << "case " << c << " t=" << t;
      for (const double bar : probeBars(rng, exact)) {
        const hcs::prob::CertifiedChance got =
            certifiedConvolvedChance(arena, a, b, t, bar);
        ASSERT_EQ(got.chance <= bar, exact <= bar)
            << "case " << c << " t=" << t << " bar=" << bar;
        ++stages[static_cast<int>(got.stage)];
      }
    }
  }
  // All three stages must actually have decided something.
  EXPECT_GT(stages[static_cast<int>(ChanceStage::Bounds)], 1000u);
  EXPECT_GT(stages[static_cast<int>(ChanceStage::Estimate)], 10000u);
  EXPECT_GT(stages[static_cast<int>(ChanceStage::Exact)], 10000u);
}

TEST(CertifiedChance, WideSupportsStayWithinTheDocumentedBound) {
  // Near the kDefaultMaxBins ceiling, where the bound is loosest.
  Rng rng(1102);
  PmfArena arena;
  for (int c = 0; c < 40; ++c) {
    const DiscretePmf a = randomPmf(rng, 2048, 0.1);
    const DiscretePmf b = randomPmf(rng, 2048, 0.1);
    for (const double t : probeDeadlines(rng, a, b)) {
      const double exact =
          hcs::prob::convolveInto(arena, a, b).cdfShiftedBy(0, t);
      const double estimate = hcs::prob::convolvedCdfEstimate(
          a.probs(), a.firstBin(), b.cdfTable(), b.firstBin(), 0.1, t);
      ASSERT_LE(std::abs(estimate - exact), documentedEstimateBound(a, b))
          << "case " << c << " t=" << t;
      ASSERT_LT(documentedEstimateBound(a, b),
                hcs::prob::kCertifiedChanceMargin);
    }
  }
}

TEST(CertifiedChance, CappedConvolutionsTakeTheExactPath) {
  // |a| + |b| − 1 > kDefaultMaxBins: the exact chance comes from a capped
  // PCT whose folded tail no estimate models, so stage 2 must not run.
  Rng rng(1103);
  PmfArena arena;
  for (int c = 0; c < 10; ++c) {
    std::vector<double> pa(2100 + static_cast<std::size_t>(c) * 37);
    std::vector<double> pb(2100);
    for (double& p : pa) p = rng.uniform(0.01, 1.0);
    for (double& p : pb) p = rng.uniform(0.01, 1.0);
    const DiscretePmf a(-5, std::move(pa));
    const DiscretePmf b(3, std::move(pb));
    ASSERT_GT(a.size() + b.size() - 1, DiscretePmf::kDefaultMaxBins);
    const double t = static_cast<double>(a.firstBin() + b.firstBin()) +
                     static_cast<double>(a.size() + b.size()) / 2.0;
    const double exact = hcs::prob::convolveInto(arena, a, b).cdf(t);
    for (const double bar : probeBars(rng, exact)) {
      const hcs::prob::CertifiedChance got =
          certifiedConvolvedChance(arena, a, b, t, bar);
      EXPECT_EQ(got.stage, ChanceStage::Exact);
      EXPECT_EQ(got.chance, exact);
    }
  }
}

TEST(PmfArenaTest, RecycledCapacityIsReusedWithoutAllocation) {
  PmfArena arena;
  std::vector<double> buf = arena.acquire(100);
  const double* data = buf.data();
  arena.recycle(std::move(buf));
  std::vector<double> again = arena.acquire(80);  // fits in the 100-capacity
  EXPECT_EQ(again.data(), data);
  EXPECT_EQ(arena.stats().acquires, 2u);
  EXPECT_EQ(arena.stats().allocations, 1u);
  EXPECT_TRUE(std::all_of(again.begin(), again.end(),
                          [](double v) { return v == 0.0; }));
}

TEST(PmfArenaTest, SteadyStateConvolutionChainsAreAllocationFree) {
  PmfArena arena;
  Rng rng(1010);
  const DiscretePmf pet = randomPmf(rng, 40);
  // Mimic a mapping event's chain: availability ⊛ PET ⊛ PET ⊛ PET, with
  // every dead intermediate recycled.  After a warm-up pass the pool serves
  // every buffer.
  auto runChain = [&] {
    DiscretePmf acc = hcs::prob::pointMassInto(arena, 10, 1.0);
    for (int step = 0; step < 4; ++step) {
      hcs::prob::convolveInPlace(arena, acc, pet);
    }
    arena.recycle(std::move(acc));
  };
  runChain();
  runChain();
  arena.resetStats();
  for (int event = 0; event < 50; ++event) runChain();
  EXPECT_GT(arena.stats().acquires, 0u);
  EXPECT_EQ(arena.stats().allocations, 0u);
}

TEST(PmfArenaTest, ThreadLocalArenasAreDistinct) {
  PmfArena* main = &PmfArena::local();
  PmfArena* other = nullptr;
  std::thread([&] { other = &PmfArena::local(); }).join();
  EXPECT_NE(main, other);
}

}  // namespace
