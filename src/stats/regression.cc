/**
 * @file
 * Implementation of the regression fits.
 */

#include "stats/regression.hh"

#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "common/running_stats.hh"
#include "stats/matrix.hh"
#include "stats/solve.hh"

namespace tdp {

double
FitResult::predict(const std::vector<double> &row) const
{
    if (row.size() != coefficients.size()) {
        panic("FitResult::predict: %zu inputs for %zu coefficients",
              row.size(), coefficients.size());
    }
    double acc = intercept;
    for (size_t i = 0; i < row.size(); ++i)
        acc += coefficients[i] * row[i];
    return acc;
}

namespace {

/** Compute R^2 and RMSE of a fitted result over the training data. */
void
finalizeGoodness(const DesignSource &source,
                 const std::vector<double> &y, FitResult &fit)
{
    RunningStats ystats;
    for (double v : y)
        ystats.add(v);
    const double ymean = ystats.mean();

    double ss_res = 0.0;
    double ss_tot = 0.0;
    std::vector<double> row(source.regressorCount());
    for (size_t i = 0; i < y.size(); ++i) {
        source.row(i, row.data());
        const double pred = fit.predict(row);
        ss_res += (y[i] - pred) * (y[i] - pred);
        ss_tot += (y[i] - ymean) * (y[i] - ymean);
    }
    fit.rmse = y.empty() ? 0.0 : std::sqrt(ss_res / y.size());
    fit.r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
    fit.sampleCount = y.size();
}

/** Adapts pre-extracted columns to the streaming interface. */
class ColumnsSource : public DesignSource
{
  public:
    ColumnsSource(const std::vector<std::vector<double>> &columns,
                  const std::vector<double> &y)
        : columns_(columns), y_(y)
    {
    }

    size_t sampleCount() const override { return y_.size(); }
    size_t regressorCount() const override { return columns_.size(); }

    void
    row(size_t i, double *out) const override
    {
        for (size_t c = 0; c < columns_.size(); ++c)
            out[c] = columns_[c][i];
    }

    double response(size_t i) const override { return y_[i]; }

  private:
    const std::vector<std::vector<double>> &columns_;
    const std::vector<double> &y_;
};

/**
 * Validation and standardisation preamble of the QR fit kernel:
 * shape checks, the loud non-finite refusal, and the per-regressor
 * shift/scale. The design matrix is filled (raw) as the single pass
 * over the source runs; the stats are then computed from it, each
 * column's in row order as the pre-streaming code added them,
 * keeping the QR path bit-identical.
 */
void
prepareFit(const DesignSource &source, std::vector<double> &y,
           Matrix &design, std::vector<double> &shift,
           std::vector<double> &scale)
{
    const size_t n = source.sampleCount();
    const size_t k = source.regressorCount();
    if (n == 0)
        fatal("fitOls: no samples");
    if (n < k + 1)
        fatal("fitOls: %zu samples cannot fit %zu coefficients", n,
              k + 1);

    y.resize(n);
    for (size_t i = 0; i < n; ++i)
        y[i] = source.response(i);

    // A single NaN/Inf regressor or response poisons the whole solve
    // into silently-NaN coefficients; refuse loudly instead so
    // callers can scrub or degrade.
    for (size_t i = 0; i < n; ++i) {
        if (!std::isfinite(y[i]))
            fatal("fitOls: non-finite response at sample %zu", i);
    }

    shift.assign(k, 0.0);
    scale.assign(k, 1.0);

    // Single pass over the source fills the design matrix with the
    // raw regressors; the intercept column and the standardisation
    // are applied in place afterwards.
    for (size_t r = 0; r < n; ++r) {
        design(r, 0) = 1.0;
        source.row(r, &design(r, 1));
    }
    for (size_t c = 0; c < k; ++c) {
        for (size_t r = 0; r < n; ++r) {
            if (!std::isfinite(design(r, c + 1)))
                fatal("fitOls: non-finite regressor in column %zu at "
                      "sample %zu",
                      c, r);
        }
    }
    // Row-major, one accumulator per column: each column still sees
    // its samples in row order, so the stats are bit-identical to a
    // column-by-column pass, while the columns' division chains
    // overlap.
    std::vector<RunningStats> stats(k);
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < k; ++c)
            stats[c].add(design(r, c + 1));
    for (size_t c = 0; c < k; ++c) {
        shift[c] = stats[c].mean();
        scale[c] = stats[c].stddev() > 1e-12 ? stats[c].stddev() : 1.0;
    }
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < k; ++c)
            design(r, c + 1) = (design(r, c + 1) - shift[c]) / scale[c];
}

/** Map standardised-space beta back to the original input scale. */
FitResult
unstandardize(const std::vector<double> &beta,
              const std::vector<double> &shift,
              const std::vector<double> &scale)
{
    const size_t k = shift.size();
    FitResult fit;
    fit.coefficients.resize(k);
    fit.intercept = beta[0];
    for (size_t c = 0; c < k; ++c) {
        fit.coefficients[c] = beta[c + 1] / scale[c];
        fit.intercept -= beta[c + 1] * shift[c] / scale[c];
    }
    return fit;
}

} // namespace

FitResult
fitOls(const DesignSource &source)
{
    const size_t n = source.sampleCount();
    const size_t k = source.regressorCount();

    std::vector<double> y;
    std::vector<double> shift;
    std::vector<double> scale;
    Matrix design(n == 0 ? 1 : n, k + 1);
    prepareFit(source, y, design, shift, scale);

    const std::vector<double> beta =
        solveLeastSquaresQr(std::move(design), y);
    FitResult fit = unstandardize(beta, shift, scale);
    finalizeGoodness(source, y, fit);
    return fit;
}

FitResult
fitOls(const std::vector<std::vector<double>> &columns,
       const std::vector<double> &y)
{
    const size_t n = y.size();
    const size_t k = columns.size();
    if (n == 0)
        fatal("fitOls: no samples");
    for (size_t c = 0; c < k; ++c) {
        if (columns[c].size() != n) {
            fatal("fitOls: column %zu has %zu samples, expected %zu",
                  c, columns[c].size(), n);
        }
    }
    return fitOls(ColumnsSource(columns, y));
}

FitResult
fitPolynomial(const std::vector<double> &x, const std::vector<double> &y,
              int degree)
{
    if (degree < 1)
        fatal("fitPolynomial: degree must be >= 1, got %d", degree);
    std::vector<std::vector<double>> columns(degree);
    for (int d = 0; d < degree; ++d) {
        columns[d].resize(x.size());
        for (size_t i = 0; i < x.size(); ++i)
            columns[d][i] = std::pow(x[i], d + 1);
    }
    return fitOls(columns, y);
}

std::vector<double>
quadraticPerInputFeatures(const std::vector<double> &row)
{
    std::vector<double> out;
    out.reserve(row.size() * 2);
    for (double v : row) {
        out.push_back(v);
        out.push_back(v * v);
    }
    return out;
}

FitResult
fitQuadraticPerInput(const std::vector<std::vector<double>> &inputs,
                     const std::vector<double> &y)
{
    std::vector<std::vector<double>> columns;
    columns.reserve(inputs.size() * 2);
    for (const auto &input : inputs) {
        columns.push_back(input);
        std::vector<double> squared(input.size());
        for (size_t i = 0; i < input.size(); ++i)
            squared[i] = input[i] * input[i];
        columns.push_back(std::move(squared));
    }
    return fitOls(columns, y);
}

} // namespace tdp
