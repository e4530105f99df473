/**
 * @file
 * Implementation of the bench statistics layer.
 */

#include "bench_stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/logging.hh"

namespace tdp {
namespace bench {

namespace {

/** 0 until resolved; set by benchRepetitions()/setBenchRepetitions. */
int configuredReps = 0;

/** First "model name" line of /proc/cpuinfo, or "unknown". */
std::string
cpuModelName()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ')
            ++begin;
        if (begin < line.size())
            return line.substr(begin);
    }
    return "unknown";
}

/**
 * Resolve the git commit: TDP_GIT_SHA wins (CI passes it), else walk
 * up from the working directory to a .git and dereference HEAD.
 * Best-effort: "unknown" when nothing resolves (e.g. a tarball
 * checkout) - the bench must never fail over provenance.
 */
std::string
resolveGitSha()
{
    const char *env = std::getenv("TDP_GIT_SHA");
    if (env && env[0] != '\0')
        return env;

    namespace fs = std::filesystem;
    std::error_code ec;
    fs::path dir = fs::current_path(ec);
    if (ec)
        return "unknown";
    // Walk up until the parent stops changing: at the filesystem
    // root parent_path() returns the root itself, never an empty
    // path, so a "!dir.empty()" condition would spin forever
    // whenever the bench runs outside any git checkout.
    for (fs::path parent; true; dir = parent) {
        parent = dir.parent_path();
        const fs::path git = dir / ".git";
        if (!fs::exists(git, ec) || ec) {
            if (parent == dir || parent.empty())
                return "unknown";
            continue;
        }
        std::ifstream head(git / "HEAD");
        std::string line;
        if (!std::getline(head, line))
            return "unknown";
        if (line.rfind("ref: ", 0) != 0)
            return line; // detached HEAD: the sha itself
        std::ifstream ref(git / line.substr(5));
        std::string sha;
        if (std::getline(ref, sha) && !sha.empty())
            return sha;
        return "unknown";
        // Packed refs are not worth chasing here; CI sets
        // TDP_GIT_SHA and local clones have loose branch refs.
    }
    return "unknown";
}

std::string
compilerVersion()
{
#if defined(__clang__)
    return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/** Escape the few JSON-significant characters a context can hold. */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            out += formatString("\\u%04x", c);
            continue;
        }
        out += c;
    }
    return out;
}

} // namespace

double
seriesMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
seriesStddev(const std::vector<double> &values)
{
    if (values.size() < 2)
        return 0.0;
    const double mean = seriesMean(values);
    double m2 = 0.0;
    for (const double v : values)
        m2 += (v - mean) * (v - mean);
    return std::sqrt(m2 / static_cast<double>(values.size() - 1));
}

const MachineContext &
machineContext()
{
    static const MachineContext context = [] {
        MachineContext c;
        c.cpu = cpuModelName();
        c.cores =
            static_cast<int>(std::thread::hardware_concurrency());
        c.compiler = compilerVersion();
        c.gitSha = resolveGitSha();
        return c;
    }();
    return context;
}

int
benchRepetitions()
{
    if (configuredReps > 0)
        return configuredReps;
    const char *env = std::getenv("TDP_BENCH_REPS");
    if (env && env[0] != '\0') {
        char *end = nullptr;
        const long parsed = std::strtol(env, &end, 10);
        if (end == env || *end != '\0' || parsed <= 0)
            fatal("TDP_BENCH_REPS expects a positive count, got '%s'",
                  env);
        configuredReps = static_cast<int>(parsed);
    } else {
        configuredReps = 5;
    }
    return configuredReps;
}

void
setBenchRepetitions(int reps)
{
    if (reps <= 0)
        fatal("setBenchRepetitions: count must be positive, got %d",
              reps);
    configuredReps = reps;
}

std::string
writeBenchSeriesJson(const std::string &bench,
                     const std::vector<MetricSeries> &metrics)
{
    const char *dir = std::getenv("TDP_BENCH_JSON_DIR");
    const std::filesystem::path path =
        std::filesystem::path(dir && dir[0] != '\0' ? dir : ".") /
        ("BENCH_" + bench + ".json");

    std::ofstream os(path);
    if (!os)
        fatal("writeBenchSeriesJson: cannot write %s", path.c_str());

    const MachineContext &mc = machineContext();
    os << "{\n  \"bench\": \"" << jsonEscape(bench) << "\",\n"
       << "  \"format_version\": 2,\n"
       << "  \"machine\": {\n"
       << "    \"cpu\": \"" << jsonEscape(mc.cpu) << "\",\n"
       << "    \"cores\": " << mc.cores << ",\n"
       << "    \"compiler\": \"" << jsonEscape(mc.compiler)
       << "\",\n"
       << "    \"git_sha\": \"" << jsonEscape(mc.gitSha) << "\"\n"
       << "  },\n"
       << "  \"repetitions\": " << benchRepetitions() << ",\n"
       << "  \"metrics\": [";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const MetricSeries &m = metrics[i];
        if (m.values.empty())
            fatal("writeBenchSeriesJson: metric '%s' has no values",
                  m.name.c_str());
        if (m.direction != "higher" && m.direction != "lower" &&
            m.direction != "exact" && m.direction != "ceiling")
            fatal("writeBenchSeriesJson: metric '%s' direction must "
                  "be 'higher', 'lower', 'exact' or 'ceiling', got "
                  "'%s'",
                  m.name.c_str(), m.direction.c_str());
        if (m.direction == "ceiling" && !(m.limit > 0.0))
            fatal("writeBenchSeriesJson: ceiling metric '%s' needs a "
                  "positive limit, got %g",
                  m.name.c_str(), m.limit);
        const double lo =
            *std::min_element(m.values.begin(), m.values.end());
        const double hi =
            *std::max_element(m.values.begin(), m.values.end());
        os << (i ? ",\n" : "\n");
        os << "    {\"name\": \"" << jsonEscape(m.name) << "\", "
           << "\"unit\": \"" << jsonEscape(m.unit) << "\", "
           << "\"gate\": " << (m.gate ? "true" : "false") << ", "
           << "\"direction\": \"" << m.direction << "\",\n";
        if (m.direction == "ceiling")
            os << "     \"limit\": "
               << formatString("%.17g", m.limit) << ",\n";
        os << "     \"mean\": "
           << formatString("%.17g", seriesMean(m.values)) << ", "
           << "\"stddev\": "
           << formatString("%.17g", seriesStddev(m.values)) << ", "
           << "\"min\": " << formatString("%.17g", lo) << ", "
           << "\"max\": " << formatString("%.17g", hi) << ",\n"
           << "     \"values\": [";
        for (size_t v = 0; v < m.values.size(); ++v) {
            os << (v ? ", " : "")
               << formatString("%.17g", m.values[v]);
        }
        os << "]}";
    }
    os << "\n  ]\n}\n";
    if (!os)
        fatal("writeBenchSeriesJson: write to %s failed",
              path.c_str());
    return path.string();
}

} // namespace bench
} // namespace tdp
