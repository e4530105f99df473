/**
 * @file
 * Ordinary least squares regression with the model forms used by the
 * paper: linear and single/multiple-input quadratics (paper section
 * 3.3.1, "Model Format").
 */

#ifndef TDP_STATS_REGRESSION_HH
#define TDP_STATS_REGRESSION_HH

#include <cstddef>
#include <string>
#include <vector>

namespace tdp {

/**
 * Result of a least-squares fit: an intercept plus one coefficient per
 * regressor column, along with goodness-of-fit summaries computed on
 * the training data.
 */
struct FitResult
{
    /** Intercept (DC term). */
    double intercept = 0.0;

    /** Coefficients, one per regressor column. */
    std::vector<double> coefficients;

    /** Coefficient of determination on the training data. */
    double r2 = 0.0;

    /** Root-mean-square error on the training data. */
    double rmse = 0.0;

    /** Number of training samples. */
    size_t sampleCount = 0;

    /** Predict for one row of regressor values. */
    double predict(const std::vector<double> &row) const;
};

/**
 * Streams design-matrix rows to the fitters without materialising
 * intermediate column copies: the fitter pulls each row directly
 * from wherever the data lives (a SampleTrace, a column set, a
 * generator). Rows must be deterministic - the fitters may pull the
 * same row more than once (once to build the system, once for the
 * goodness-of-fit pass).
 */
class DesignSource
{
  public:
    virtual ~DesignSource() = default;

    /** Number of samples (design-matrix rows). */
    virtual size_t sampleCount() const = 0;

    /** Number of regressors (columns, excluding the intercept). */
    virtual size_t regressorCount() const = 0;

    /** Fill out[0..regressorCount) with row i's regressor values. */
    virtual void row(size_t i, double *out) const = 0;

    /** Response (observed y) of row i. */
    virtual double response(size_t i) const = 0;
};

/**
 * Fit y ~= intercept + sum_j coef_j * x_j by least squares (QR).
 *
 * @param columns regressor columns, all the same length as y.
 * @param y observed responses.
 */
FitResult fitOls(const std::vector<std::vector<double>> &columns,
                 const std::vector<double> &y);

/**
 * Streaming fitOls: identical arithmetic (and therefore bit-identical
 * results) to the column overload, but the design matrix is filled
 * in a single pass straight from the source - no per-fit column
 * copies are materialised.
 */
FitResult fitOls(const DesignSource &source);

/**
 * Fit a single-input polynomial y ~= c0 + c1 x + ... + cd x^d.
 * Inputs are standardised internally for conditioning; returned
 * coefficients are in the original input scale (coefficients[k-1]
 * multiplies x^k).
 */
FitResult fitPolynomial(const std::vector<double> &x,
                        const std::vector<double> &y, int degree);

/**
 * Fit the paper's multi-input quadratic form (Equation 4): for each
 * input variable v, include v and v^2 terms but no cross terms.
 *
 * @param inputs one column per variable.
 * @param y observed responses.
 *
 * Returned coefficients are ordered [x0, x0^2, x1, x1^2, ...].
 */
FitResult fitQuadraticPerInput(
    const std::vector<std::vector<double>> &inputs,
    const std::vector<double> &y);

/** Expand one input row to the per-input quadratic feature layout. */
std::vector<double> quadraticPerInputFeatures(
    const std::vector<double> &row);

} // namespace tdp

#endif // TDP_STATS_REGRESSION_HH
