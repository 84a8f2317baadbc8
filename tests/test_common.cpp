// Tests of the support utilities: ensure, table rendering, CLI parsing.
#include <gtest/gtest.h>

#include <string>

#include "common/cli.hpp"
#include "common/ensure.hpp"
#include "common/table.hpp"

namespace flashabft {
namespace {

TEST(Ensure, PassingConditionIsSilent) {
  FLASHABFT_ENSURE(1 + 1 == 2);
  FLASHABFT_ENSURE_MSG(true, "never evaluated");
}

TEST(Ensure, FailureThrowsWithContext) {
  try {
    FLASHABFT_ENSURE_MSG(false, "lane " << 7 << " of " << 4);
    FAIL() << "should have thrown";
  } catch (const EnsureError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lane 7 of 4"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(TableRender, AlignsColumnsAndCountsRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
  const std::string out = t.render();
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22222 |"), std::string::npos);
}

TEST(TableRender, TitleRendered) {
  Table t({"x"});
  t.set_title("My Table");
  EXPECT_EQ(t.render().rfind("My Table\n", 0), 0u);
}

TEST(TableRender, WrongCellCountThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), EnsureError);
}

TEST(FormatNumber, RangeSwitching) {
  EXPECT_EQ(format_number(0.0), "0");
  EXPECT_EQ(format_number(1.5, 2), "1.50");
  EXPECT_EQ(format_number(1e-6, 2), "1.0e-06");
  EXPECT_EQ(format_number(123456.0, 1), "123456.0");
  EXPECT_EQ(format_number(1e7, 3), "1.00e+07");
}

TEST(FormatPercent, Basic) {
  EXPECT_EQ(format_percent(0.0455), "4.55%");
  EXPECT_EQ(format_percent(1.0, 1), "100.0%");
  EXPECT_EQ(format_percent(0.0, 0), "0%");
}

TEST(Cli, EqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "4", "--gamma"};
  const CliArgs args(5, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get_int("beta", 0), 4);
  EXPECT_TRUE(args.has("gamma"));
  EXPECT_TRUE(args.get_bool("gamma", false));
  EXPECT_EQ(args.get_int("missing", 42), 42);
}

TEST(Cli, TypesAndDefaults) {
  const char* argv[] = {"prog", "--rate=0.25", "--name=flash",
                        "--flag=false"};
  const CliArgs args(4, argv);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.25);
  EXPECT_EQ(args.get_string("name", ""), "flash");
  EXPECT_FALSE(args.get_bool("flag", true));
  EXPECT_DOUBLE_EQ(args.get_double("nope", 1.5), 1.5);
}

TEST(Cli, PositionalArguments) {
  const char* argv[] = {"prog", "input.bin", "--n=3", "output.bin"};
  const CliArgs args(4, argv);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.bin");
  EXPECT_EQ(args.positional()[1], "output.bin");
}

TEST(Cli, BadBoolThrows) {
  const char* argv[] = {"prog", "--flag=maybe"};
  const CliArgs args(2, argv);
  EXPECT_THROW((void)args.get_bool("flag", false), EnsureError);
}

TEST(Cli, MalformedNumbersThrow) {
  const char* argv[] = {"prog",       "--threads=4x",
                        "--prob=abc", "--rate=0.5e",
                        "--blank=",   "--huge=1e999",
                        "--neg=-3",   "--big=99999999999999999999",
                        "--sci=2.5e-3"};
  const CliArgs args(9, argv);
  EXPECT_THROW((void)args.get_int("threads", 0), EnsureError);
  EXPECT_THROW((void)args.get_size("threads", 0), EnsureError);
  EXPECT_THROW((void)args.get_double("prob", 0.0), EnsureError);
  EXPECT_THROW((void)args.get_double("rate", 0.0), EnsureError);
  EXPECT_THROW((void)args.get_int("blank", 0), EnsureError);
  EXPECT_THROW((void)args.get_double("blank", 0.0), EnsureError);
  EXPECT_THROW((void)args.get_double("huge", 0.0), EnsureError);
  EXPECT_THROW((void)args.get_int("big", 0), EnsureError);
  // Well-formed values still parse whole.
  EXPECT_EQ(args.get_int("neg", 0), -3);
  EXPECT_THROW((void)args.get_size("neg", 0), EnsureError);
  EXPECT_DOUBLE_EQ(args.get_double("sci", 0.0), 2.5e-3);
}

TEST(Cli, RejectUnknownNamesEveryUnreadFlag) {
  const char* argv[] = {"prog", "--alpha=1", "--bogus=1", "--scheduler",
                        "legacy", "--beta"};
  const CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 1);
  EXPECT_TRUE(args.has("beta"));
  EXPECT_EQ(args.get_int("absent", 7), 7);  // reading an absent flag is fine.
  try {
    args.reject_unknown();
    FAIL() << "unknown flags were accepted";
  } catch (const EnsureError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--bogus"), std::string::npos) << what;
    EXPECT_NE(what.find("--scheduler"), std::string::npos) << what;
    EXPECT_EQ(what.find("--alpha"), std::string::npos) << what;
    EXPECT_EQ(what.find("--beta"), std::string::npos) << what;
  }
  EXPECT_FALSE(all_flags_known(args));

  // Once every flag has been read, nothing is unknown.
  (void)args.get_string("bogus", "");
  (void)args.get_string("scheduler", "");
  EXPECT_NO_THROW(args.reject_unknown());
  EXPECT_TRUE(all_flags_known(args));
}

}  // namespace
}  // namespace flashabft
