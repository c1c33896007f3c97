#pragma once
// Destination-passing kernels over the PMF bin layout.
//
// These are the Eq. 1 / Eq. 2 primitives of prob/pmf.h rewritten to (a) take
// their output buffer from a PmfArena instead of the heap, and (b) run over
// __restrict pointers with a fixed per-output-bin accumulation order, so the
// compiler can auto-vectorize across bins while every result stays
// byte-identical to the DiscretePmf member functions.  Consumers that chain
// operations (machine tail rebuilds, the PCT cache's queue-suffix chains, the
// scheduler's candidate loops) recycle each dead intermediate back into the
// arena, making the steady-state path allocation-free.
//
// Identity contracts (verified bin by bin by tests/kernels_test.cpp):
//   convolveInto(arena, a, b, m)            == a.convolve(b, m)
//   cappedInto(arena, a, m)                 == a.capped(m)
//   conditionalRemainingInto(arena, a, e, s) == a.conditionalRemaining(e)
//                                               .shifted(s)

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "prob/arena.h"
#include "prob/pmf.h"

namespace hcs::prob {

namespace kernels {

/// Adds the discrete convolution of (a, na) and (b, nb) into `out`, which
/// must hold `nout` pre-zeroed bins with nout <= na + nb - 1; contributions
/// to bins at or past nout-1 fold into out[nout-1].  For every output bin
/// the contributions a[i]*b[k-i] are accumulated in ascending i (and, for
/// the fold bin, ascending (i, j)) — the exact order of the original scalar
/// loop, so results are bit-identical while the in-range inner loop is a
/// clean `out[i + j] += a[i] * b[j]` the compiler vectorizes across bins.
void convolveAdd(const double* __restrict a, std::size_t na,
                 const double* __restrict b, std::size_t nb,
                 double* __restrict out, std::size_t nout);

/// Zero padding convolveAddTiled() requires on BOTH sides of operand b
/// (in doubles): bPadded must point at the first real b value inside a
/// buffer laid out as [kConvolvePad zeros][b...][kConvolvePad zeros].
inline constexpr std::size_t kConvolvePad = 31;

/// Uncapped convolution (nout must equal na + nb - 1) with the per-output-
/// bin accumulation order held entirely in registers: each output bin's sum
/// Σ_i a[i]·b[k-i] is accumulated in ascending i — the identical order (and
/// therefore identical bits) as convolveAdd — but a register tile covers a
/// block of adjacent bins, so the compiler vectorizes ACROSS bins with no
/// load/store of `out` inside the loop.  The axpy form above is limited by
/// store-to-load forwarding between overlapping dst vectors; this form has
/// no memory dependence at all.  Out-of-range b terms read the zero padding
/// and contribute exact +0.0, which leaves every accumulator bit-unchanged.
/// `out` is overwritten (not accumulated into).
///
/// Returns the total mass Σ_k out[k], accumulated strictly in ascending k —
/// the exact value normalization's own scan would produce — computed as a
/// byproduct: the serial FP sum chain overlaps the next block's independent
/// convolution work instead of costing a dedicated O(n) latency chain.
double convolveAddTiled(const double* __restrict a, std::size_t na,
                        const double* __restrict bPadded, std::size_t nb,
                        double* __restrict out, std::size_t nout);

/// Phase-1 ECT row for the batch-mapping engine's machine-axis SoA layout:
/// out[j] = ready[j] + exec[j] + mask[j] for every machine j in one pass
/// over three contiguous rows.  `mask` is 0.0 for machines with free
/// virtual queue slots and +infinity for ineligible ones, so a single
/// branch-free sweep prices every machine and poisons the ineligible lanes
/// to +inf in the same instruction.  Bit-identity with the scalar
/// ready + exec sum holds lane by lane: the adds are element-wise (no
/// reduction, no reassociation, same -ffp-contract=off discipline as the
/// convolution kernels), and x + 0.0 == x bitwise for every non-negative
/// finite x (ready and exec are never negative, so no lane is -0.0).
void ectRow(const double* __restrict ready, const double* __restrict exec,
            const double* __restrict mask, double* __restrict out,
            std::size_t m);

}  // namespace kernels

/// a.convolve(b, maxBins) with the result buffer drawn from `arena`.
DiscretePmf convolveInto(PmfArena& arena, const DiscretePmf& a,
                         const DiscretePmf& b,
                         std::size_t maxBins = DiscretePmf::kDefaultMaxBins);

/// acc = acc ⊛ b with the dead accumulator's buffer recycled into `arena`:
/// the steady-state step of Eq. 1 chains, allocation-free once warm.
void convolveInPlace(PmfArena& arena, DiscretePmf& acc, const DiscretePmf& b,
                     std::size_t maxBins = DiscretePmf::kDefaultMaxBins);

/// a.capped(maxBins) with the result buffer drawn from `arena`.
DiscretePmf cappedInto(PmfArena& arena, const DiscretePmf& a,
                       std::size_t maxBins);

/// A one-bin PMF with all mass on grid bin `bin` — identical to
/// DiscretePmf(bin, {1.0}, binWidth) but with the buffer drawn from `arena`
/// (the idle-machine availability point mass of Eq. 1 chains).
DiscretePmf pointMassInto(PmfArena& arena, std::int64_t bin, double binWidth);

/// a.conditionalRemaining(elapsed).shifted(shiftBins) in one step with the
/// result buffer drawn from `arena`; `shiftBins` re-anchors the remaining
/// distribution to absolute time without the intermediate copy.
DiscretePmf conditionalRemainingInto(PmfArena& arena, const DiscretePmf& a,
                                     double elapsed,
                                     std::int64_t shiftBins = 0);

/// Eq. 2 over a batch of completion-time distributions: element i is
/// pcts[i]->successProbability(deadline), evaluated in one call so a
/// mapping context can score every candidate machine's PCT against a
/// task's deadline together.  Each PMF answers through its prefix-sum
/// table when it has one; the batching is an API convenience (one
/// result vector, one call site), not a fused kernel.
std::vector<double> successProbabilityBatch(
    std::span<const DiscretePmf* const> pcts, double deadline);

/// Half-width of the band around a pruning bar inside which a certified
/// chance estimate (see certifiedChance) is not trusted and the exact
/// convolution runs instead.
///
/// Why 1e-9 is safe.  Every PMF is normalized by trimAndNormalize, so its
/// bins are non-negative and sum to 1 within n·u (u = 2⁻⁵³).  For non-
/// negative operands every floating-point sum, product and quotient has a
/// RELATIVE error bound, and relative errors of non-negative terms carry
/// over to any partial sum of them: a recursive sum of n terms is within
/// γₙ ≈ n·u of the real sum.  Against the real-number chance V of the same
/// float inputs:
///  - the exact path (one convolution with ≤ min(|a|,|b|) terms per bin, a
///    total over ≤ N bins, a division, a prefix sum over ≤ N bins) lies
///    within about 3·N·u of V, N = |a|+|b|−1 ≤ kDefaultMaxBins (larger
///    sizes are capped, change V itself, and always go exact);
///  - the estimate Σᵢ a[i]·F_b[jᵢ] (a prefix sum over |b| terms, a product,
///    a sum over |a| terms, and the ≈(|a|+|b|)·u distance of Σa·Σb from 1
///    that the exact path's normalization removes) lies within about
///    2·N·u of V.
/// With N ≤ 4096 the two differ by at most ≈ 5·4096·u ≈ 2.3e-12, over 400×
/// below the margin.  When the two sides associate a chain differently
/// (the proactive walk's avail ⊛ (PET₀ ⊛ … ⊛ PETᵢ) against the exact left
/// fold), each of the ≤ D chain levels adds at most ≈ 2·4096·u ≈ 9.1e-13
/// per side, so the margin covers chains up to kMaxCertifiedChainDepth.
/// Outside the band the estimate and the exact chance sit on the same side
/// of the bar, so `chance <= bar` is decided identically.
inline constexpr double kCertifiedChanceMargin = 1e-9;

/// Deepest convolution chain (levels per side) whose differently
/// associated estimate the margin above still certifies:
/// 2·(256 + 2)·9.1e-13 ≈ 4.7e-10 < kCertifiedChanceMargin.
inline constexpr std::size_t kMaxCertifiedChainDepth = 256;

/// Estimate of the Eq. 2 chance of a ⊛ b — of
/// convolveInto(a, b).cdfShiftedBy(0, t) when a and b are PMFs with these
/// bins — without convolving: Σᵢ a[i]·F_b[jᵢ], where jᵢ counts b's bins
/// that land below the exact cdfShiftedBy cutoff t + binWidth·1e-6 when
/// added to a's bin i.  `aFirst`/`bFirst` are absolute first-bin indices
/// and `bCdf` is b's prefix-sum table (DiscretePmf::cdfTable layout).
/// Within the forward-error bound documented at kCertifiedChanceMargin of
/// the exact chance; NaN when t is NaN.
double convolvedCdfEstimate(std::span<const double> a, std::int64_t aFirst,
                            std::span<const double> bCdf, std::int64_t bFirst,
                            double binWidth, double t);

/// Which stage of certifiedChance settled a decision.
enum class ChanceStage { Bounds, Estimate, Exact };

/// A stand-in for an Eq. 2 chance: `chance <= bar` holds exactly when it
/// holds for the exact chance (for the bar certifiedChance was given).
struct CertifiedChance {
  double chance;
  ChanceStage stage;
};

/// Decides `chance <= bar` for a candidate PCT a ⊛ b with support bounds
/// [candMin, candMax] (bin indices; candMin exact, candMax >= the real last
/// bin) in three stages, each settling it exactly as the exact chance would:
///  1. Support bounds: the chance is exactly 0 when every bin misses the
///     cutoff (deadline + binWidth·1e-6, the arithmetic of
///     DiscretePmf::cdf), and within the PMF mass tolerance of 1 when every
///     bin makes it — decisive unless the bar sits within 1e-6 below 1.
///  2. `estimate()` — a convolvedCdfEstimate of the same chance, or NaN
///     when the caller cannot certify one — trusted when it sits more than
///     kCertifiedChanceMargin from the bar and the exact convolution would
///     not be capped (candMax − candMin + 1 <= kDefaultMaxBins).
///  3. `exact()`: the Eq. 1/Eq. 2 convolution the reference path runs.
template <typename EstimateFn, typename ExactFn>
CertifiedChance certifiedChance(std::int64_t candMin, std::int64_t candMax,
                                double binWidth, double deadline, double bar,
                                EstimateFn&& estimate, ExactFn&& exact) {
  const double cutoff = deadline + binWidth * 1e-6;
  if (static_cast<double>(candMin) * binWidth >= cutoff) {
    return {0.0, ChanceStage::Bounds};
  }
  if (static_cast<double>(candMax) * binWidth < cutoff &&
      (bar < 1.0 - 1e-6 || bar >= 1.0)) {
    return {1.0, ChanceStage::Bounds};
  }
  if (candMax - candMin <
      static_cast<std::int64_t>(DiscretePmf::kDefaultMaxBins)) {
    const double e = estimate();
    if (std::abs(e - bar) > kCertifiedChanceMargin) {
      return {e, ChanceStage::Estimate};
    }
  }
  return {exact(), ChanceStage::Exact};
}

}  // namespace hcs::prob
