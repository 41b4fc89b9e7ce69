/**
 * @file
 * Tests for the trace-file access generator.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "workload/trace_generator.hh"

using namespace prism;

namespace
{

/** RAII temp trace file. */
struct TempTrace
{
    explicit TempTrace(const std::string &contents)
    {
        path = testing::TempDir() + "prism_trace_" +
               std::to_string(::getpid()) + "_" +
               std::to_string(counter++) + ".txt";
        std::ofstream out(path);
        out << contents;
    }

    ~TempTrace() { std::remove(path.c_str()); }

    std::string path;
    static int counter;
};

int TempTrace::counter = 0;

} // namespace

TEST(TraceGenerator, ReplaysInOrder)
{
    TraceFileGenerator g(std::vector<Addr>{10, 20, 30}, 0);
    EXPECT_EQ(g.next() & 0xFFFF, 10u);
    EXPECT_EQ(g.next() & 0xFFFF, 20u);
    EXPECT_EQ(g.next() & 0xFFFF, 30u);
}

TEST(TraceGenerator, LoopsAtEnd)
{
    TraceFileGenerator g(std::vector<Addr>{1, 2}, 0);
    g.next();
    g.next();
    EXPECT_EQ(g.loops(), 1u);
    EXPECT_EQ(g.next() & 0xFFFF, 1u);
}

TEST(TraceGenerator, ParsesDecimalAndHex)
{
    TempTrace t("100\n0x200\n# a comment\n300 # trailing comment\n\n");
    TraceFileGenerator g(t.path, 0);
    EXPECT_EQ(g.size(), 3u);
    EXPECT_EQ(g.next() & 0xFFFF, 100u);
    EXPECT_EQ(g.next() & 0xFFFF, 0x200u);
    EXPECT_EQ(g.next() & 0xFFFF, 300u);
}

TEST(TraceGenerator, StreamTagKeepsCoresDisjoint)
{
    TraceFileGenerator a(std::vector<Addr>{42}, 0),
        b(std::vector<Addr>{42}, 1);
    EXPECT_NE(a.next(), b.next());
}

TEST(TraceGenerator, PreservesSetMapping)
{
    // Low 40 bits pass through so the trace's set distribution is
    // preserved exactly.
    TraceFileGenerator g(std::vector<Addr>{0x123456789ULL}, 3);
    EXPECT_EQ(g.next() & 0xFFFFFFFFFFULL, 0x123456789ULL);
}

TEST(TraceGenerator, MissingFileIsFatal)
{
    EXPECT_DEATH(TraceFileGenerator("/nonexistent/trace.txt", 0),
                 "cannot open");
}

TEST(TraceGenerator, EmptyTraceIsFatal)
{
    TempTrace t("# only comments\n");
    EXPECT_DEATH(TraceFileGenerator(t.path, 0), "no addresses");
}

TEST(TraceGenerator, BadTokenIsFatal)
{
    TempTrace t("123\nnot_a_number\n");
    EXPECT_DEATH(TraceFileGenerator(t.path, 0), "bad address");
    // A sign or trailing junk is refused, not wrapped or truncated.
    for (const char *bad : {"-5\n", "12abc\n", "0x\n"}) {
        TempTrace u(bad);
        EXPECT_DEATH(TraceFileGenerator(u.path, 0), "bad address")
            << bad;
    }
}
