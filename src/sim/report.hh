/**
 * @file
 * Fixed-width table printing for the bench binaries, so each bench
 * reproduces its paper table/figure as aligned rows on stdout, plus
 * the shared machine-readable result serialization every bench's
 * --json flag uses.
 */

#ifndef BANSHEE_SIM_REPORT_HH
#define BANSHEE_SIM_REPORT_HH

#include <cstdio>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/system.hh"

namespace banshee {

class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> headers,
                          int columnWidth = 12)
        : headers_(std::move(headers)), width_(columnWidth)
    {
    }

    void printHeader() const;
    void printRow(const std::vector<std::string> &cells) const;
    void printRule() const;

  private:
    std::vector<std::string> headers_;
    int width_;
};

/** Format a double with @p decimals places. */
std::string fmt(double value, int decimals = 2);

/** Banner printed at the top of every bench binary. */
void printBanner(const std::string &title, const std::string &paperRef);

/**
 * Serialize one sweep as JSON: run metadata, per-category traffic,
 * per-category energy, and the headline scalars of every RunResult,
 * keyed by its experiment label. Fatal (sim_assert) when @p labels
 * and @p results disagree in length; dies on I/O errors.
 *
 * The output is a pure function of the results (no host timings), so
 * the committed bench/baselines/ goldens can be checked byte for byte.
 */
void writeResultsJson(const std::string &path, const std::string &bench,
                      const std::vector<std::string> &labels,
                      const std::vector<RunResult> &results);

} // namespace banshee

#endif // BANSHEE_SIM_REPORT_HH
