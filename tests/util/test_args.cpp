/**
 * @file
 * Tests for the command-line flag parser.
 */

#include <gtest/gtest.h>

#include <climits>

#include "util/args.hpp"
#include "util/logging.hpp"

namespace fastcap {
namespace {

ArgParser
makeParser()
{
    ArgParser args("prog", "test program");
    args.addString("workload", "MIX3", "workload name");
    args.addDouble("budget", 0.6, "budget fraction");
    args.addInt("cores", 16, "core count");
    args.addFlag("trace", "emit trace");
    return args;
}

TEST(Args, DefaultsWithoutArguments)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog"};
    ASSERT_TRUE(args.parse(1, argv));
    EXPECT_EQ(args.getString("workload"), "MIX3");
    EXPECT_DOUBLE_EQ(args.getDouble("budget"), 0.6);
    EXPECT_EQ(args.getInt("cores"), 16);
    EXPECT_FALSE(args.getFlag("trace"));
    EXPECT_FALSE(args.provided("budget"));
}

TEST(Args, SpaceSeparatedValues)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "--workload", "MEM1", "--budget",
                          "0.75", "--cores", "64"};
    ASSERT_TRUE(args.parse(7, argv));
    EXPECT_EQ(args.getString("workload"), "MEM1");
    EXPECT_DOUBLE_EQ(args.getDouble("budget"), 0.75);
    EXPECT_EQ(args.getInt("cores"), 64);
    EXPECT_TRUE(args.provided("budget"));
}

TEST(Args, EqualsSeparatedValues)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "--budget=0.5", "--workload=ILP2"};
    ASSERT_TRUE(args.parse(3, argv));
    EXPECT_DOUBLE_EQ(args.getDouble("budget"), 0.5);
    EXPECT_EQ(args.getString("workload"), "ILP2");
}

TEST(Args, BooleanFlagForms)
{
    ArgParser a = makeParser();
    const char *argv1[] = {"prog", "--trace"};
    ASSERT_TRUE(a.parse(2, argv1));
    EXPECT_TRUE(a.getFlag("trace"));

    ArgParser b = makeParser();
    const char *argv2[] = {"prog", "--trace=0"};
    ASSERT_TRUE(b.parse(2, argv2));
    EXPECT_FALSE(b.getFlag("trace"));
}

TEST(Args, ScientificNotationDoubles)
{
    ArgParser args("p", "d");
    args.addDouble("instructions", 1e6, "count");
    const char *argv[] = {"p", "--instructions", "5e7"};
    ASSERT_TRUE(args.parse(3, argv));
    EXPECT_DOUBLE_EQ(args.getDouble("instructions"), 5e7);
}

TEST(Args, RejectsUnknownOption)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "--bogus", "1"};
    EXPECT_FALSE(args.parse(3, argv));
}

TEST(Args, RejectsBadNumericValue)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "--budget", "sixty"};
    EXPECT_FALSE(args.parse(3, argv));

    ArgParser args2 = makeParser();
    const char *argv2[] = {"prog", "--cores", "3.5"};
    EXPECT_FALSE(args2.parse(3, argv2));

    // strtod parses these; a numeric option must not accept them.
    for (const char *bad : {"nan", "inf", "-inf", "NaN", "infinity"}) {
        ArgParser p = makeParser();
        const char *argv3[] = {"prog", "--budget", bad};
        EXPECT_FALSE(p.parse(3, argv3)) << bad;
    }

    // Integers outside the option's range (int by default) must not
    // wrap: 4294967312 would become 16 in an int, 4294967297 would
    // become 1.
    for (const char *bad : {"4294967312", "4294967297", "2147483648",
                            "-2147483649", "99999999999999999999"}) {
        ArgParser p = makeParser();
        const char *argv4[] = {"prog", "--cores", bad};
        EXPECT_FALSE(p.parse(3, argv4)) << bad;
    }

    // A wider declared range still rejects what overflows a long, and
    // its own bounds.
    for (const char *bad : {"99999999999999999999",
                            "-99999999999999999999"}) {
        ArgParser p("prog", "test program");
        p.addInt("seed", 0, "seed", LONG_MIN, LONG_MAX);
        const char *argv5[] = {"prog", "--seed", bad};
        EXPECT_FALSE(p.parse(3, argv5)) << bad;
    }
    ArgParser events("prog", "test program");
    events.addInt("events", 0, "event cap", 0, LONG_MAX);
    const char *argv6[] = {"prog", "--events", "-1"};
    EXPECT_FALSE(events.parse(3, argv6));
}

TEST(Args, RejectsMissingValue)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "--budget"};
    EXPECT_FALSE(args.parse(2, argv));
}

TEST(Args, RejectsPositionalArgument)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "stray"};
    EXPECT_FALSE(args.parse(2, argv));
}

TEST(Args, HelpReturnsFalseAndLists)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "--help"};
    EXPECT_FALSE(args.parse(2, argv));
    const std::string help = args.helpText();
    EXPECT_NE(help.find("--workload"), std::string::npos);
    EXPECT_NE(help.find("--budget"), std::string::npos);
    EXPECT_NE(help.find("default: 0.6"), std::string::npos);
}

TEST(Args, WrongTypeAccessPanics)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog"};
    ASSERT_TRUE(args.parse(1, argv));
    EXPECT_THROW(args.getDouble("workload"), PanicError);
    EXPECT_THROW(args.getString("nonexistent"), PanicError);
}

TEST(Args, DuplicateDeclarationPanics)
{
    ArgParser args("p", "d");
    args.addInt("n", 1, "x");
    EXPECT_THROW(args.addDouble("n", 2.0, "y"), PanicError);
}

} // namespace
} // namespace fastcap
