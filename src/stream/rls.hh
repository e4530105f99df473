/**
 * @file
 * Windowed recursive least squares over the normal-equations
 * moments.
 *
 * The offline trainer refits from scratch: every window would cost
 * O(rows x inputs^2). The streaming service instead maintains the
 * normal-equations accumulators (XᵀX, Xᵀy, and the first and second
 * raw moments) *incrementally*: each accepted sample folds
 * into the open block in O(inputs^2), and a refit merges the sealed
 * block partials and solves the (inputs x inputs) system - no pass
 * over the stored rows.
 *
 * Windowing is blockwise: the window is the most recent
 * `windowBlocks` sealed blocks of `blockRows` rows. Sliding the
 * window *drops a whole block partial* instead of downdating running
 * totals - floating-point addition does not associate, and
 * (sum + x) - x != sum would silently decay the accumulators. Because
 * every refit re-merges the per-block partials in window order, the
 * incremental fit is bit-identical to recomputing those partials from
 * the stored rows and solving from scratch; refitFromScratch() does
 * exactly that and exists so the invariant stays testable (it guards
 * against stale or drifted cached partials).
 *
 * Numerical health guards wrap the moments solve: non-finite moments,
 * a singular system, a non-finite solution or an algebraically
 * inconsistent residual all force a full QR refit (fitOls over the
 * stored window rows - the project's best-conditioned reference). If
 * even the QR refuses the window, the refit reports failure and the
 * caller keeps its previous model: degrade, never collapse.
 */

#ifndef TDP_STREAM_RLS_HH
#define TDP_STREAM_RLS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/regression.hh"

namespace tdp {
namespace stream {

class CheckpointWriter;
class CheckpointReader;

/** Window shape of one incremental fit. */
struct RlsConfig
{
    /** Regressor count (0 = intercept-only constant fit). */
    size_t inputs = 0;

    /** Rows per sealed block. */
    size_t blockRows = 32;

    /** Sealed blocks forming the sliding window. */
    size_t windowBlocks = 8;
};

/** Deterministic fit accounting. */
struct RlsStats
{
    uint64_t rowsAdded = 0;
    uint64_t blocksSealed = 0;

    /** Refits served from the incremental moments path. */
    uint64_t refits = 0;

    /** Refits that fell back to the full QR over stored rows. */
    uint64_t fullQrRefits = 0;

    /** Guard trips, by class. @{ */
    uint64_t guardNonFinite = 0;
    uint64_t guardSingular = 0;
    uint64_t guardInconsistent = 0;
    uint64_t guardInsufficient = 0;
    /** @} */
};

/** Blockwise windowed incremental least squares. */
class WindowedRls
{
  public:
    /** Outcome of one refit request. */
    struct Refit
    {
        /** The fit; meaningful only when ok. */
        FitResult fit;

        /** True when a guard forced the full QR path. */
        bool usedFullQr = false;

        /** False when no path could fit the window. */
        bool ok = false;

        /** Guard that tripped ("" when the moments path served). */
        const char *guard = "";
    };

    /** fatal() on a malformed config. */
    explicit WindowedRls(const RlsConfig &config);

    /**
     * Fold one row (inputs values) with response @p y into the open
     * block: O(inputs^2). Seals the block after blockRows rows,
     * sliding the window once it holds windowBlocks blocks.
     */
    void add(const double *row, double y);

    /** Rows in the sealed window (excludes the open block). */
    size_t windowRows() const { return blockCount_ * cfg_.blockRows; }

    /** True when the window holds windowBlocks sealed blocks. */
    bool windowFull() const { return blockCount_ == cfg_.windowBlocks; }

    /** True when the sealed window has enough rows to fit. */
    bool
    canFit() const
    {
        return windowRows() >= cfg_.inputs + 2;
    }

    /**
     * Fit the sealed window from the incremental moments, guarded;
     * see the file comment for the fallback ladder.
     */
    Refit refit();

    /**
     * The reference: recompute every block partial from the stored
     * window rows and solve identically. Bit-identical to refit()'s
     * moments path by construction; exists to prove it.
     */
    FitResult refitFromScratch() const;

    const RlsConfig &config() const { return cfg_; }
    const RlsStats &stats() const { return stats_; }

    /**
     * Serialize every block partial, the stored window rows and the
     * stats (checkpoint.hh). The restored fit state is bit-identical:
     * the next refit merges the exact same partials.
     */
    void checkpointSave(CheckpointWriter &w) const;

    /**
     * Restore into a freshly constructed instance; the serialized
     * window shape must match this config (the restore fails the
     * reader, never fatals, on mismatch or corruption).
     */
    bool checkpointRestore(CheckpointReader &r);

  private:
    /** Fused accumulators of one block (raw, unstandardised). */
    struct Partial
    {
        /** Upper-triangle-mirrored full k x k Gram sum x xᵀ. */
        std::vector<double> gram;

        /** Per-input sums. */
        std::vector<double> sx;

        /** Per-input sum x * y. */
        std::vector<double> sxy;

        double sy = 0.0;
        double syy = 0.0;
        uint64_t n = 0;
    };

    void resetPartial(Partial &partial) const;
    void foldRow(Partial &partial, const double *row, double y) const;

    /** Merge partials of window position range in canonical order. */
    void mergeInto(Partial &acc, const Partial &block) const;

    /**
     * Solve the centred, standardised normal equations from raw
     * moments. On success *guard stays ""; on a health violation it
     * names the guard and the result is unusable.
     */
    FitResult solveFromMoments(const Partial &moments,
                               const char **guard) const;

    /** fitOls (QR) over the stored window rows. */
    bool fullQrRefit(FitResult &out) const;

    /** Physical slot of window position j (0 = oldest sealed). */
    size_t slotOf(size_t j) const;

    /** Physical slot of the open block. */
    size_t openSlot() const;

    RlsConfig cfg_;
    RlsStats stats_;

    /** windowBlocks + 1 physical slots (sealed window + open). */
    std::vector<Partial> partials_;

    /** Row storage, [slot * blockRows * inputs]. */
    std::vector<double> rows_;

    /** Response storage, [slot * blockRows]. */
    std::vector<double> ys_;

    size_t oldestSlot_ = 0;
    size_t blockCount_ = 0;
    size_t openRows_ = 0;
};

} // namespace stream
} // namespace tdp

#endif // TDP_STREAM_RLS_HH
