/**
 * @file
 * Implementation of the blockwise windowed incremental fit.
 */

#include "stream/rls.hh"

#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "stats/matrix.hh"
#include "stats/solve.hh"
#include "stream/checkpoint.hh"

namespace tdp {
namespace stream {

namespace {

/** Guard names; refit() matches on content to classify the trip. */
constexpr const char *guardNonFinite = "non-finite-moments";
constexpr const char *guardSingular = "singular-system";
constexpr const char *guardBadSolution = "non-finite-solution";
constexpr const char *guardInconsistent = "inconsistent-residual";

} // namespace

WindowedRls::WindowedRls(const RlsConfig &config)
    : cfg_(config)
{
    if (cfg_.blockRows == 0)
        fatal("WindowedRls: blockRows must be >= 1");
    if (cfg_.windowBlocks == 0)
        fatal("WindowedRls: windowBlocks must be >= 1");
    const size_t slots = cfg_.windowBlocks + 1;
    partials_.resize(slots);
    for (auto &partial : partials_)
        resetPartial(partial);
    rows_.assign(slots * cfg_.blockRows * cfg_.inputs, 0.0);
    ys_.assign(slots * cfg_.blockRows, 0.0);
}

void
WindowedRls::resetPartial(Partial &partial) const
{
    partial.gram.assign(cfg_.inputs * cfg_.inputs, 0.0);
    partial.sx.assign(cfg_.inputs, 0.0);
    partial.sxy.assign(cfg_.inputs, 0.0);
    partial.sy = 0.0;
    partial.syy = 0.0;
    partial.n = 0;
}

void
WindowedRls::foldRow(Partial &partial, const double *row, double y) const
{
    const size_t k = cfg_.inputs;
    for (size_t a = 0; a < k; ++a)
        partial.sx[a] += row[a];
    for (size_t a = 0; a < k; ++a) {
        const double xa = row[a];
        for (size_t b = 0; b < k; ++b)
            partial.gram[a * k + b] += xa * row[b];
        partial.sxy[a] += xa * y;
    }
    partial.sy += y;
    partial.syy += y * y;
    ++partial.n;
}

void
WindowedRls::mergeInto(Partial &acc, const Partial &block) const
{
    const size_t k = cfg_.inputs;
    for (size_t i = 0; i < k * k; ++i)
        acc.gram[i] += block.gram[i];
    for (size_t a = 0; a < k; ++a) {
        acc.sx[a] += block.sx[a];
        acc.sxy[a] += block.sxy[a];
    }
    acc.sy += block.sy;
    acc.syy += block.syy;
    acc.n += block.n;
}

size_t
WindowedRls::slotOf(size_t j) const
{
    return (oldestSlot_ + j) % partials_.size();
}

size_t
WindowedRls::openSlot() const
{
    return (oldestSlot_ + blockCount_) % partials_.size();
}

void
WindowedRls::add(const double *row, double y)
{
    const size_t slot = openSlot();
    const size_t rowBase =
        (slot * cfg_.blockRows + openRows_) * cfg_.inputs;
    for (size_t c = 0; c < cfg_.inputs; ++c)
        rows_[rowBase + c] = row[c];
    ys_[slot * cfg_.blockRows + openRows_] = y;
    foldRow(partials_[slot], row, y);
    ++openRows_;
    ++stats_.rowsAdded;
    if (openRows_ == cfg_.blockRows) {
        ++stats_.blocksSealed;
        if (blockCount_ < cfg_.windowBlocks) {
            ++blockCount_;
        } else {
            // Slide: the oldest sealed block leaves the window; its
            // slot becomes the new open block. Its partial is dropped
            // whole - never subtracted from a running total.
            oldestSlot_ = (oldestSlot_ + 1) % partials_.size();
        }
        openRows_ = 0;
        resetPartial(partials_[openSlot()]);
    }
}

FitResult
WindowedRls::solveFromMoments(const Partial &moments,
                              const char **guard) const
{
    *guard = "";
    FitResult fit;
    const size_t k = cfg_.inputs;
    const double n = static_cast<double>(moments.n);
    fit.sampleCount = moments.n;

    bool finite = std::isfinite(moments.sy) &&
                  std::isfinite(moments.syy);
    for (size_t a = 0; a < k && finite; ++a)
        finite = std::isfinite(moments.sx[a]) &&
                 std::isfinite(moments.sxy[a]);
    for (size_t i = 0; i < k * k && finite; ++i)
        finite = std::isfinite(moments.gram[i]);
    if (!finite) {
        *guard = guardNonFinite;
        return fit;
    }

    const double ssTot = moments.syy - moments.sy * moments.sy / n;

    if (k == 0) {
        // Intercept-only: the mean, with ss_res = ss_tot about it.
        fit.intercept = moments.sy / n;
        const double ssRes = ssTot > 0.0 ? ssTot : 0.0;
        fit.rmse = std::sqrt(ssRes / n);
        fit.r2 = 0.0;
        return fit;
    }

    // Centre and standardise algebraically: the solve then runs on
    // the same well-conditioned z-scored system the QR path builds
    // explicitly, without touching the rows.
    std::vector<double> mean(k), inv(k);
    for (size_t c = 0; c < k; ++c) {
        mean[c] = moments.sx[c] / n;
        double m2 = moments.gram[c * k + c] -
                    moments.sx[c] * moments.sx[c] / n;
        if (m2 < 0.0)
            m2 = 0.0;
        // Scale by any positive spread - an absolute floor would
        // leave tiny-magnitude regressors (per-cycle rates squared
        // are ~1e-13) unscaled and spuriously singular. A truly
        // constant column has sd == 0 and stays unscaled; the pivot
        // check then refuses it. A denormal sd overflows inv to
        // infinity, which the finite checks below catch.
        const double sd = std::sqrt(m2 / (n - 1.0));
        inv[c] = sd > 0.0 ? 1.0 / sd : 1.0;
    }

    Matrix a(k, k);
    std::vector<double> b(k);
    for (size_t r = 0; r < k; ++r) {
        for (size_t c = 0; c < k; ++c) {
            a(r, c) = (moments.gram[r * k + c] -
                       moments.sx[r] * moments.sx[c] / n) *
                      inv[r] * inv[c];
        }
        b[r] = (moments.sxy[r] - moments.sx[r] * moments.sy / n) *
               inv[r];
    }
    for (size_t r = 0; r < k; ++r) {
        if (!std::isfinite(b[r])) {
            *guard = guardNonFinite;
            return fit;
        }
        for (size_t c = 0; c < k; ++c) {
            if (!std::isfinite(a(r, c))) {
                *guard = guardNonFinite;
                return fit;
            }
        }
    }

    std::vector<double> betaZ;
    try {
        betaZ = solveLinearSystem(a, b);
    } catch (const FatalError &) {
        *guard = guardSingular;
        return fit;
    }
    for (size_t c = 0; c < k; ++c) {
        if (!std::isfinite(betaZ[c])) {
            *guard = guardBadSolution;
            return fit;
        }
    }

    fit.coefficients.resize(k);
    double dot = 0.0;
    for (size_t c = 0; c < k; ++c) {
        fit.coefficients[c] = betaZ[c] * inv[c];
        dot += fit.coefficients[c] * mean[c];
    }
    fit.intercept = moments.sy / n - dot;

    // Residual sum algebraically: ss_tot - 2 betaᵀb + betaᵀA beta in
    // the standardised space. A grossly negative value means the
    // moments lost too much precision to trust.
    double quad = 0.0, cross = 0.0;
    for (size_t r = 0; r < k; ++r) {
        cross += betaZ[r] * b[r];
        double rowDot = 0.0;
        for (size_t c = 0; c < k; ++c)
            rowDot += a(r, c) * betaZ[c];
        quad += betaZ[r] * rowDot;
    }
    double ssRes = ssTot - 2.0 * cross + quad;
    if (!std::isfinite(ssRes)) {
        *guard = guardNonFinite;
        return fit;
    }
    const double tolerance =
        1e-6 * (ssTot > 1.0 ? ssTot : 1.0);
    if (ssRes < -tolerance) {
        *guard = guardInconsistent;
        return fit;
    }
    if (ssRes < 0.0)
        ssRes = 0.0;
    fit.rmse = std::sqrt(ssRes / n);
    fit.r2 = ssTot > 0.0 ? 1.0 - ssRes / ssTot : 0.0;
    return fit;
}

bool
WindowedRls::fullQrRefit(FitResult &out) const
{
    const size_t k = cfg_.inputs;
    const size_t rows = windowRows();
    if (rows < k + 2)
        return false;

    std::vector<std::vector<double>> columns(
        k, std::vector<double>(rows));
    std::vector<double> y(rows);
    size_t r = 0;
    for (size_t j = 0; j < blockCount_; ++j) {
        const size_t slot = slotOf(j);
        for (size_t i = 0; i < cfg_.blockRows; ++i, ++r) {
            const double *row =
                rows_.data() + (slot * cfg_.blockRows + i) * k;
            for (size_t c = 0; c < k; ++c)
                columns[c][r] = row[c];
            y[r] = ys_[slot * cfg_.blockRows + i];
        }
    }

    if (k == 0) {
        // fitOls needs at least one column; the intercept-only fit is
        // a mean.
        double sum = 0.0;
        for (size_t i = 0; i < rows; ++i)
            sum += y[i];
        out = FitResult{};
        out.intercept = sum / static_cast<double>(rows);
        double ssRes = 0.0;
        for (size_t i = 0; i < rows; ++i) {
            const double d = y[i] - out.intercept;
            ssRes += d * d;
        }
        out.rmse = std::sqrt(ssRes / static_cast<double>(rows));
        out.sampleCount = rows;
        return std::isfinite(out.intercept);
    }

    FitResult qr;
    try {
        qr = fitOls(columns, y);
    } catch (const FatalError &) {
        return false;
    }
    bool finite = std::isfinite(qr.intercept);
    for (size_t c = 0; c < qr.coefficients.size() && finite; ++c)
        finite = std::isfinite(qr.coefficients[c]);
    if (!finite)
        return false;
    out = qr;
    return true;
}

WindowedRls::Refit
WindowedRls::refit()
{
    Refit out;
    if (!canFit()) {
        ++stats_.guardInsufficient;
        out.guard = "insufficient-rows";
        return out;
    }

    Partial acc;
    resetPartial(acc);
    for (size_t j = 0; j < blockCount_; ++j)
        mergeInto(acc, partials_[slotOf(j)]);

    const char *guard = "";
    FitResult fit = solveFromMoments(acc, &guard);
    if (guard[0] == '\0') {
        ++stats_.refits;
        out.fit = fit;
        out.ok = true;
        return out;
    }

    out.guard = guard;
    if (std::strcmp(guard, guardSingular) == 0)
        ++stats_.guardSingular;
    else if (std::strcmp(guard, guardInconsistent) == 0)
        ++stats_.guardInconsistent;
    else
        ++stats_.guardNonFinite;

    FitResult qr;
    if (fullQrRefit(qr)) {
        ++stats_.fullQrRefits;
        out.fit = qr;
        out.ok = true;
        out.usedFullQr = true;
    }
    return out;
}

FitResult
WindowedRls::refitFromScratch() const
{
    // Recompute every sealed block's partial from the stored rows
    // with the exact foldRow/merge/solve sequence refit() uses on the
    // cached partials: bit-identical results unless a cached partial
    // has drifted from the rows it claims to summarise.
    Partial acc;
    resetPartial(acc);
    Partial block;
    for (size_t j = 0; j < blockCount_; ++j) {
        const size_t slot = slotOf(j);
        resetPartial(block);
        for (size_t i = 0; i < cfg_.blockRows; ++i) {
            const double *row = rows_.data() +
                                (slot * cfg_.blockRows + i) *
                                    cfg_.inputs;
            foldRow(block, row, ys_[slot * cfg_.blockRows + i]);
        }
        mergeInto(acc, block);
    }
    const char *guard = "";
    return solveFromMoments(acc, &guard);
}

void
WindowedRls::checkpointSave(CheckpointWriter &w) const
{
    // Window shape first: the restore side cross-checks it against
    // its own config before trusting any offsets below (defense in
    // depth behind the service-level fingerprint).
    w.u64(cfg_.inputs);
    w.u64(cfg_.blockRows);
    w.u64(cfg_.windowBlocks);
    w.u64(stats_.rowsAdded);
    w.u64(stats_.blocksSealed);
    w.u64(stats_.refits);
    w.u64(stats_.fullQrRefits);
    w.u64(stats_.guardNonFinite);
    w.u64(stats_.guardSingular);
    w.u64(stats_.guardInconsistent);
    w.u64(stats_.guardInsufficient);
    w.u64(oldestSlot_);
    w.u64(blockCount_);
    w.u64(openRows_);
    for (const Partial &partial : partials_) {
        w.column(partial.gram);
        w.column(partial.sx);
        w.column(partial.sxy);
        w.f64(partial.sy);
        w.f64(partial.syy);
        w.u64(partial.n);
    }
    w.column(rows_);
    w.column(ys_);
}

bool
WindowedRls::checkpointRestore(CheckpointReader &r)
{
    if (r.u64() != cfg_.inputs || r.u64() != cfg_.blockRows ||
        r.u64() != cfg_.windowBlocks) {
        r.fail("refit window shape mismatch");
        return false;
    }
    stats_.rowsAdded = r.u64();
    stats_.blocksSealed = r.u64();
    stats_.refits = r.u64();
    stats_.fullQrRefits = r.u64();
    stats_.guardNonFinite = r.u64();
    stats_.guardSingular = r.u64();
    stats_.guardInconsistent = r.u64();
    stats_.guardInsufficient = r.u64();
    oldestSlot_ = r.u64();
    blockCount_ = r.u64();
    openRows_ = r.u64();
    if (!r.ok())
        return false;
    if (oldestSlot_ >= partials_.size() ||
        blockCount_ > cfg_.windowBlocks ||
        openRows_ >= cfg_.blockRows) {
        r.fail("refit window cursors out of range");
        return false;
    }
    // Every column keeps the size the config gave it.
    for (Partial &partial : partials_) {
        r.column(partial.gram, partial.gram.size());
        r.column(partial.sx, partial.sx.size());
        r.column(partial.sxy, partial.sxy.size());
        partial.sy = r.f64();
        partial.syy = r.f64();
        partial.n = r.u64();
    }
    r.column(rows_, rows_.size());
    r.column(ys_, ys_.size());
    return r.ok();
}

} // namespace stream
} // namespace tdp
