#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "io/args.h"
#include "io/csv.h"
#include "io/table.h"

namespace antalloc {
namespace {

TEST(Table, RenderAligned) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "12345"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("12345"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"x"});
  t.add_row({"with,comma"});
  t.add_row({"with\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Table, Validation) {
  EXPECT_THROW(Table({}), std::invalid_argument);
  Table t({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), std::invalid_argument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::fmt(std::int64_t{42}), "42");
  EXPECT_EQ(Table::fmt(1.5, 3), "1.5");
  EXPECT_EQ(Table::fmt(0.000123456, 3), "0.000123");
}

TEST(Csv, WriteAndReadBack) {
  const std::string path = ::testing::TempDir() + "/antalloc_csv_test.csv";
  {
    const std::vector<std::string> cols{"a", "b"};
    CsvWriter w(path, cols);
    w.write_row(std::vector<double>{1.0, 2.5});
    w.write_row(std::vector<std::string>{"x", "y"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5");
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::remove(path.c_str());
}

TEST(Csv, RowWidthChecked) {
  const std::string path = ::testing::TempDir() + "/antalloc_csv_width.csv";
  const std::vector<std::string> cols{"a", "b"};
  CsvWriter w(path, cols);
  EXPECT_THROW(w.write_row(std::vector<double>{1.0}), std::invalid_argument);
  std::remove(path.c_str());
}

Args make_args(std::vector<std::string> tokens) {
  static std::vector<std::string> storage;
  storage = std::move(tokens);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> argv;
  argv.reserve(storage.size());
  for (auto& s : storage) argv.push_back(s.data());
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, ParsesBothSyntaxes) {
  auto args = make_args({"--n=100", "--gamma", "0.25", "--verbose"});
  EXPECT_EQ(args.get_int("n", 1), 100);
  EXPECT_DOUBLE_EQ(args.get_double("gamma", 0.0), 0.25);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_string("mode", "auto"), "auto");  // default
  args.check_unknown();
}

TEST(Args, UnknownFlagDetected) {
  auto args = make_args({"--typo=1"});
  args.get_int("n", 1);
  EXPECT_THROW(args.check_unknown(), std::invalid_argument);
}

TEST(Args, RejectsPositional) {
  EXPECT_THROW(make_args({"positional"}), std::invalid_argument);
}

TEST(Args, BooleanSpellings) {
  auto args = make_args({"--a=yes", "--b=off", "--c=true"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
}

TEST(Args, HelpListsDeclaredFlags) {
  auto args = make_args({});
  args.get_int("rounds", 50);
  args.get_double("gamma", 0.1);
  const std::string help = args.help();
  EXPECT_NE(help.find("--rounds=50"), std::string::npos);
  EXPECT_NE(help.find("--gamma"), std::string::npos);
}

}  // namespace
}  // namespace antalloc
