// util/hash.h: FNV-1a against the published reference vectors, plus the
// chaining and stability properties the fault injector and the explore
// memo key depend on.
#include "util/hash.h"

#include <gtest/gtest.h>

#include <string>

#include "util/flags.h"

namespace sdf::util {
namespace {

TEST(Fnv1a64, ReferenceVectors) {
  // Vectors from the FNV reference implementation (Noll's test suite).
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("b"), 0xaf63df4c8601f1a5ULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a64, EmptyInputReturnsSeed) {
  EXPECT_EQ(fnv1a64(""), kFnv64Offset);
  EXPECT_EQ(fnv1a64("", 12345u), 12345u);
}

TEST(Fnv1a64, ChainingEqualsConcatenation) {
  // fnv1a64(b, fnv1a64(a)) must hash exactly like fnv1a64(a + b), so a
  // key can be extended over more data without concatenating strings.
  const std::string a = "graph satrec\nactor A\n";
  const std::string b = "order=rpmc;opt=sdppo";
  EXPECT_EQ(fnv1a64(b, fnv1a64(a)), fnv1a64(a + b));
}

TEST(Fnv1a64, ChainingIsOrderSensitive) {
  EXPECT_NE(fnv1a64("b", fnv1a64("a")), fnv1a64("a", fnv1a64("b")));
}

TEST(Fnv1a64, HighBytesAreNotSignExtended) {
  // Bytes >= 0x80 must enter as unsigned; a char sign-extension bug
  // would smear the high bits and make hashes platform-dependent.
  const std::string high("\xff\x80\x01", 3);
  EXPECT_EQ(fnv1a64(high),
            fnv1a64("\x01", fnv1a64("\x80", fnv1a64("\xff"))));
}

TEST(Fnv1a64, IsConstexpr) {
  static_assert(fnv1a64("a") == 0xaf63dc4c8601ec8cULL);
  SUCCEED();
}

TEST(ParsePositiveFlag, AcceptsPositiveIntegers) {
  EXPECT_EQ(parse_positive_flag("1"), 1);
  EXPECT_EQ(parse_positive_flag("250"), 250);
  EXPECT_EQ(parse_positive_flag("9223372036854775807"),
            9223372036854775807LL);
}

TEST(ParsePositiveFlag, RejectsNonPositiveAndMalformed) {
  EXPECT_FALSE(parse_positive_flag("0"));
  EXPECT_FALSE(parse_positive_flag("-1"));
  EXPECT_FALSE(parse_positive_flag("+4"));
  EXPECT_FALSE(parse_positive_flag(""));
  EXPECT_FALSE(parse_positive_flag("abc"));
  EXPECT_FALSE(parse_positive_flag("4x"));       // atoi would say 4
  EXPECT_FALSE(parse_positive_flag(" 4"));
  EXPECT_FALSE(parse_positive_flag("00"));       // zero, however spelled
  EXPECT_FALSE(parse_positive_flag("9223372036854775808"));  // overflow
}

TEST(ParsePositiveFlag, LeadingZerosOnPositiveValueAreFine) {
  EXPECT_EQ(parse_positive_flag("007"), 7);
}

}  // namespace
}  // namespace sdf::util
