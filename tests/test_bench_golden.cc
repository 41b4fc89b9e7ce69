/**
 * @file
 * Golden-stats regression: the prism_bench driver must reproduce the
 * committed fixture sweep JSON (tests/golden/BENCH_fixture.json)
 * field for field. The fixture figure pins its machine and mixes
 * (independent of the PRISM_BENCH_* scaling knobs) and the driver
 * runs with --no-timing, so the comparison can be exact: any
 * behavioural drift in the generators, cache model, schemes, runner
 * or JSON writer shows up as a diff here.
 *
 * Regenerate after an intentional behaviour change with:
 *   build/tools/prism_bench fixture --no-timing --out tests/golden
 */

#include <gtest/gtest.h>

#include <initializer_list>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace
{

#ifndef PRISM_BENCH_BIN_DEFAULT
#define PRISM_BENCH_BIN_DEFAULT "tools/prism_bench"
#endif
#ifndef PRISM_GOLDEN_FILE_DEFAULT
#define PRISM_GOLDEN_FILE_DEFAULT "../tests/golden/BENCH_fixture.json"
#endif

std::string
benchBin()
{
    if (const char *p = std::getenv("PRISM_BENCH_BIN"))
        return p;
    return PRISM_BENCH_BIN_DEFAULT;
}

std::string
goldenPath()
{
    if (const char *p = std::getenv("PRISM_GOLDEN_FILE"))
        return p;
    return PRISM_GOLDEN_FILE_DEFAULT;
}

/** Run prism_bench with @p args, after shell assignments @p env. */
std::pair<int, std::string>
run(const std::string &args, const std::string &env = "")
{
    const std::string cmd = env + benchBin() + " " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string out;
    std::array<char, 4096> buf;
    while (std::size_t n = std::fread(buf.data(), 1, buf.size(), pipe))
        out.append(buf.data(), n);
    const int status = pclose(pipe);
    return {WEXITSTATUS(status), out};
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << "cannot open " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** First line at which the two texts differ, for a readable diff. */
std::string
firstDiff(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    for (int line = 1;; ++line) {
        const bool ga = static_cast<bool>(std::getline(sa, la));
        const bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga && !gb)
            return "no difference";
        if (la != lb || ga != gb)
            return "line " + std::to_string(line) + ": golden '" +
                   la + "' vs produced '" + lb + "'";
    }
}

} // namespace

TEST(BenchGolden, FixtureReproducesGoldenJson)
{
    char tmpl[] = "/tmp/prism_golden_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string out_dir = tmpl;

    const auto [code, out] =
        run("fixture --no-timing --out " + out_dir);
    ASSERT_EQ(code, 0) << out;
    EXPECT_NE(out.find("sweep:"), std::string::npos);

    const std::string produced =
        slurp(out_dir + "/BENCH_fixture.json");
    const std::string golden = slurp(goldenPath());
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(golden, produced) << firstDiff(golden, produced);

    std::remove((out_dir + "/BENCH_fixture.json").c_str());
    std::remove(out_dir.c_str());
}

TEST(BenchGolden, GoldenCarriesExpectedSchema)
{
    const std::string golden = slurp(goldenPath());
    EXPECT_NE(golden.find("\"schema\": \"prism-bench-v1\""),
              std::string::npos);
    EXPECT_NE(golden.find("\"sweep\": \"fixture\""),
              std::string::npos);
    // Timing must never be committed: it would break reproduction.
    EXPECT_EQ(golden.find("\"timing\""), std::string::npos);
    EXPECT_EQ(golden.find("wall_seconds"), std::string::npos);
}

TEST(BenchGolden, UnknownFigureFails)
{
    const auto [code, out] = run("no_such_figure --no-json");
    EXPECT_EQ(code, 2);
    EXPECT_NE(out.find("unknown figure"), std::string::npos);
}

TEST(BenchGolden, ListIncludesHeadlineFigures)
{
    const auto [code, out] = run("--list");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("fig02_summary"), std::string::npos);
    EXPECT_NE(out.find("fig13_victimless"), std::string::npos);
    // Hidden fixtures stay out of the listing.
    EXPECT_EQ(out.find("fixture\n"), std::string::npos);
}

namespace
{

/**
 * Run the fixture figure with @p env_var set to each malformed value:
 * a usage error (exit 2) naming the variable, raised before the
 * figure header or any job.
 */
void
expectEnvUsageError(const std::string &env_var,
                    std::initializer_list<const char *> values)
{
    for (const char *value : values) {
        const auto [code, out] =
            run("fixture --no-json --no-timing",
                env_var + "='" + value + "' ");
        EXPECT_EQ(code, 2) << value << ": " << out;
        EXPECT_NE(out.find(env_var), std::string::npos) << out;
        EXPECT_EQ(out.find("PriSM reproduction"), std::string::npos)
            << value << ": " << out;
    }
}

} // namespace

TEST(BenchCli, MalformedScaleEnvironmentIsAUsageError)
{
    expectEnvUsageError("PRISM_BENCH_SCALE", {"2x", "nan", "-1", ""});
}

TEST(BenchCli, MalformedWorkloadsEnvironmentIsAUsageError)
{
    expectEnvUsageError("PRISM_BENCH_WORKLOADS", {"3q", "-1", "1e3"});
}

TEST(BenchCli, MalformedNumbersAreUsageErrors)
{
    // Each bad value comes before --list: a regressed check lists the
    // figures and exits 0 without building a pool or running a job.
    const char *const bad[] = {
        "--threads 2x",        "--threads 0",
        "--threads 1025",      "--threads -1",
        "--retries -1",        "--deadline nan",
        "--deadline -1",       "--metrics-every 3q",
        "--chaos-seed zz",     "--ckpt-every 5x",
        "--ckpt-every 0",      "--trace-capacity 9x",
        "--die-after x",       "--threads",
    };
    for (const char *flags : bad) {
        const auto [code, out] = run(std::string(flags) + " --list");
        EXPECT_EQ(code, 2) << flags << ": " << out;
        EXPECT_EQ(out.find("fig02_summary"), std::string::npos)
            << flags << ": " << out;
    }
    // The bounds themselves are accepted.
    const auto [code, out] =
        run("--threads 1024 --retries 0 --deadline 0.5 --list");
    EXPECT_EQ(code, 0) << out;
}
