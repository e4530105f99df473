/**
 * @file
 * Unified machine-readable run manifest.
 *
 * One schema-versioned JSON document per bench run folding together
 * everything a script or CI job needs: which tool ran with which
 * worker count, every workload run (sample counts, fingerprints,
 * cache provenance), the bench's own metrics (the series means
 * bench_util's writeBenchSeries records), free-form flat sections
 * contributed by higher layers (training scrub counts, estimator
 * health, trace-cache outcomes) and a full StatsRegistry snapshot.
 *
 * The manifest deliberately depends only on scalars and strings, so
 * the obs library stays at the bottom of the dependency stack; the
 * layers that own TrainingReport / HealthReport / TraceCache::Stats
 * flatten them into sections (dotted keys) at contribution time.
 *
 * Schema (version 1):
 *   {
 *     "schema": "tdp-run-manifest",
 *     "version": 1,
 *     "tool": "<bench binary>",
 *     "jobs": <int>,
 *     "runs": [ {"workload": str, "samples": int,
 *                "fingerprint": "<%016x>", "from_cache": bool,
 *                "sim_seconds": num}, ... ],
 *     "metrics": [ {"name": str, "value": num, "unit": str}, ... ],
 *     "sections": { "<name>": {"<dotted.key>": num|str, ...}, ... },
 *     "stats": { "counters": {...}, "gauges": {...},
 *                "histograms": {...} },
 *     "span_trace": {"path": str, "recorded": int, "dropped": int}
 *                   (optional)
 *   }
 */

#ifndef TDP_OBS_RUN_MANIFEST_HH
#define TDP_OBS_RUN_MANIFEST_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/stats_registry.hh"

namespace tdp {
namespace obs {

/** One simulated (or cache-served) workload run. */
struct ManifestRun
{
    std::string workload;
    uint64_t samples = 0;
    uint64_t fingerprint = 0;
    bool fromCache = false;
    double simSeconds = 0.0;
};

/** One bench metric: a series' mean and its unit. */
struct ManifestMetric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Accumulates a run's facts and writes the JSON document. */
class RunManifest
{
  public:
    /** Bump when the document layout changes incompatibly. */
    static constexpr int schemaVersion = 1;

    /** Document identifier stored in the "schema" field. */
    static constexpr const char *schemaName = "tdp-run-manifest";

    /** Tool identity and worker count. @{ */
    void setTool(std::string name) { tool_ = std::move(name); }
    const std::string &tool() const { return tool_; }
    void setJobs(int jobs) { jobs_ = jobs; }
    /** @} */

    /** Append one workload run. */
    void addRun(ManifestRun run) { runs_.push_back(std::move(run)); }

    /** Append one bench metric. */
    void addMetric(ManifestMetric metric)
    {
        metrics_.push_back(std::move(metric));
    }

    /** Section entry value: a number or a string. */
    struct SectionValue
    {
        bool isNumber = true;
        double number = 0.0;
        std::string text;
    };

    /**
     * Add one flat entry to a named section (sections and their
     * entries keep insertion order; re-adding a key appends a
     * duplicate, so contributors should flatten once). @{
     */
    void addSectionEntry(const std::string &section,
                         const std::string &key, double value);
    void addSectionEntry(const std::string &section,
                         const std::string &key, uint64_t value);
    void addSectionEntry(const std::string &section,
                         const std::string &key,
                         const std::string &value);
    /** @} */

    /** Record the span-trace output this run produced (optional). */
    void setSpanTrace(std::string path, uint64_t recorded,
                      uint64_t dropped);

    /** Runs recorded so far. */
    const std::vector<ManifestRun> &runs() const { return runs_; }

    /**
     * Write the manifest document, embedding the given stats
     * snapshot (pass a default-constructed snapshot for none).
     */
    void writeJson(std::ostream &os,
                   const StatsRegistry::Snapshot &stats) const;

    /**
     * Write atomically to a file (temp + rename), embedding a
     * snapshot of the global StatsRegistry. Returns false with a
     * warning on failure.
     */
    bool writeFile(const std::string &path) const;

  private:
    std::string tool_;
    int jobs_ = 1;
    std::vector<ManifestRun> runs_;
    std::vector<ManifestMetric> metrics_;

    struct Section
    {
        std::string name;
        std::vector<std::pair<std::string, SectionValue>> entries;
    };
    std::vector<Section> sections_;
    Section &sectionFor(const std::string &name);

    bool hasSpanTrace_ = false;
    std::string spanTracePath_;
    uint64_t spanRecorded_ = 0;
    uint64_t spanDropped_ = 0;
};

} // namespace obs
} // namespace tdp

#endif // TDP_OBS_RUN_MANIFEST_HH
