#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "ff/util/config.h"
#include "ff/util/csv.h"

namespace ff {
namespace {

TEST(CsvWriter, WritesHeaderAndRows) {
  std::ostringstream os;
  CsvWriter w(os);
  w.header({"a", "b"});
  w.field(1.5).field(std::int64_t{2});
  w.end_row();
  EXPECT_EQ(os.str(), "a,b\n1.5,2\n");
}

TEST(CsvWriter, EscapesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter w(os);
  w.field("plain").field("has,comma").field("has\"quote");
  w.end_row();
  EXPECT_EQ(os.str(), "plain,\"has,comma\",\"has\"\"quote\"\n");
}

TEST(CsvWriter, NumericRowHelper) {
  std::ostringstream os;
  CsvWriter w(os);
  w.row({1.0, 2.0, 3.0});
  EXPECT_EQ(os.str(), "1,2,3\n");
}

TEST(CsvWriter, ThrowsOnUnopenablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"), std::runtime_error);
}

TEST(CsvWriter, WriteSeriesRoundTrip) {
  TimeSeries s("P");
  s.record(0, 1.0);
  s.record(kSecond, 2.5);
  const std::string path = ::testing::TempDir() + "/series.csv";
  write_series_csv(s, path);

  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "time_s,value");
  std::getline(in, line);
  EXPECT_EQ(line, "0,1");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5");
  std::remove(path.c_str());
}

TEST(CsvWriter, WriteBundleLongForm) {
  SeriesBundle b;
  b.series("P").record(0, 1.0);
  b.series("T").record(0, 2.0);
  const std::string path = ::testing::TempDir() + "/bundle.csv";
  write_bundle_csv(b, path);

  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("0,P,1"), std::string::npos);
  EXPECT_NE(all.find("0,T,2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Config, ParsesKeyValueArgs) {
  const char* argv[] = {"prog", "fps=30", "name=test", "flag"};
  std::vector<std::string> leftover;
  const Config c = Config::from_args(4, argv, &leftover);
  EXPECT_EQ(c.get_double("fps", 0), 30.0);
  EXPECT_EQ(c.get_string("name", ""), "test");
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], "flag");
}

TEST(Config, FallbacksWhenMissingOrInvalid) {
  const char* argv[] = {"prog", "x=notanumber"};
  const Config c = Config::from_args(2, argv);
  EXPECT_EQ(c.get_double("x", 7.0), 7.0);
  EXPECT_EQ(c.get_int("missing", 3), 3);
  EXPECT_EQ(c.get_string("missing", "d"), "d");
}

TEST(Config, NonFiniteDoublesThrowNamingTheKey) {
  for (const char* text : {"nan", "inf", "-inf"}) {
    Config c;
    c.set("device.fps", text);
    try {
      (void)c.get_double("device.fps", 30.0);
      FAIL() << text << " must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("device.fps"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Config, BoolParsing) {
  const char* argv[] = {"prog", "a=true", "b=0", "c=YES", "d=off", "e=maybe"};
  const Config c = Config::from_args(6, argv);
  EXPECT_TRUE(c.get_bool("a", false));
  EXPECT_FALSE(c.get_bool("b", true));
  EXPECT_TRUE(c.get_bool("c", false));
  EXPECT_FALSE(c.get_bool("d", true));
  EXPECT_TRUE(c.get_bool("e", true));  // unparseable -> fallback
}

TEST(Config, FromFileWithCommentsAndWhitespace) {
  const std::string path = ::testing::TempDir() + "/cfg.txt";
  {
    std::ofstream out(path);
    out << "# a comment\n"
        << "  fps = 25  \n"
        << "name=edge # trailing comment\n"
        << "\n"
        << "no_equals_line\n";
  }
  const Config c = Config::from_file(path);
  EXPECT_EQ(c.get_double("fps", 0), 25.0);
  EXPECT_EQ(c.get_string("name", ""), "edge");
  EXPECT_FALSE(c.has("no_equals_line"));
  std::remove(path.c_str());
}

TEST(Config, FromFileMissingThrows) {
  EXPECT_THROW(Config::from_file("/no/such/file.cfg"), std::runtime_error);
}

}  // namespace
}  // namespace ff
