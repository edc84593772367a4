/**
 * @file
 * StatRegistry behaviour tests.
 */

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hh"

using namespace regpu;

TEST(StatRegistry, CountersStartAtZero)
{
    StatRegistry s;
    EXPECT_EQ(s.counter("anything"), 0u);
}

TEST(StatRegistry, IncAccumulates)
{
    StatRegistry s;
    s.inc("a");
    s.inc("a", 4);
    EXPECT_EQ(s.counter("a"), 5u);
}

TEST(StatRegistry, NamesAreIndependent)
{
    StatRegistry s;
    s.inc("a");
    s.inc("b", 2);
    EXPECT_EQ(s.counter("a"), 1u);
    EXPECT_EQ(s.counter("b"), 2u);
}

TEST(StatRegistry, ResetClearsEverything)
{
    StatRegistry s;
    s.inc("a", 10);
    s.inc("b", 3);
    s.reset();
    EXPECT_EQ(s.counter("a"), 0u);
    EXPECT_EQ(s.counter("b"), 0u);
}

TEST(StatRegistry, CopySnapshotIsIndependent)
{
    StatRegistry s;
    s.inc("a", 1);
    StatRegistry snap = s;
    s.inc("a", 1);
    EXPECT_EQ(snap.counter("a"), 1u);
    EXPECT_EQ(s.counter("a"), 2u);
}

TEST(StatRegistry, AllCountersExposesEntries)
{
    StatRegistry s;
    s.inc("one");
    s.inc("two", 2);
    EXPECT_EQ(s.allCounters().size(), 2u);
}

TEST(StatRegistry, ForEachVisitsInNameOrder)
{
    StatRegistry s;
    s.inc("zeta", 3);
    s.inc("alpha", 1);
    s.inc("mid", 2);

    std::vector<std::string> names;
    u64 sum = 0;
    s.forEachCounter([&](std::string_view name, u64 value) {
        names.emplace_back(name);
        sum += value;
    });
    EXPECT_EQ(names,
              (std::vector<std::string>{"alpha", "mid", "zeta"}));
    EXPECT_EQ(sum, 6u);
}
