// util: string helpers and the Config store.
#include <gtest/gtest.h>

#include "scenario/parameters.hpp"
#include "util/config.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace {

using namespace p2p::util;

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("\t\n x \r "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-17"), -17);
  EXPECT_EQ(parse_int("  8  "), 8);
  EXPECT_FALSE(parse_int("x"));
  EXPECT_FALSE(parse_int("4.2"));
  EXPECT_FALSE(parse_int(""));
  EXPECT_FALSE(parse_int("12abc"));
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(*parse_double("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*parse_double("-2e3"), -2000.0);
  EXPECT_DOUBLE_EQ(*parse_double("7"), 7.0);
  EXPECT_FALSE(parse_double("abc"));
  EXPECT_FALSE(parse_double(""));
  EXPECT_FALSE(parse_double("1.0x"));
}

TEST(Strings, ParseBool) {
  EXPECT_EQ(parse_bool("true"), true);
  EXPECT_EQ(parse_bool("YES"), true);
  EXPECT_EQ(parse_bool("1"), true);
  EXPECT_EQ(parse_bool("on"), true);
  EXPECT_EQ(parse_bool("false"), false);
  EXPECT_EQ(parse_bool("No"), false);
  EXPECT_EQ(parse_bool("0"), false);
  EXPECT_EQ(parse_bool("off"), false);
  EXPECT_FALSE(parse_bool("maybe"));
}

TEST(Config, SetAndGet) {
  Config config;
  config.set("a", "42");
  config.set("d", "text");
  EXPECT_EQ(config.get_string("a"), "42");
  EXPECT_EQ(config.get_string("d"), "text");
  EXPECT_FALSE(config.get_string("missing"));
}

TEST(Config, ParseIniBasics) {
  Config config;
  std::string error;
  ASSERT_TRUE(config.parse_ini("a = 1\n# comment\n; also comment\n\nb=two\n",
                               &error))
      << error;
  EXPECT_EQ(config.get_string("a"), "1");
  EXPECT_EQ(config.get_string("b"), "two");
  EXPECT_EQ(config.size(), 2U);
}

TEST(Config, ParseIniRejectsMalformedLines) {
  Config config;
  std::string error;
  EXPECT_FALSE(config.parse_ini("novalue\n", &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(config.parse_ini("[unclosed\n", &error));
  EXPECT_FALSE(config.parse_ini("=5\n", &error));
  // No sections: a header is a malformed line, named by its number.
  EXPECT_FALSE(config.parse_ini("top = 1\n[net]\nrange = 10\n", &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_FALSE(config.parse_ini("[net=1]\n", &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(Config, IniThenHardenedApplyRejectsBadScenarioInput) {
  // The daemon feeds INI-shaped overrides through the same two-stage
  // pipeline as files and the CLI: Config stays schema-free (any
  // well-formed key=value parses), and scenario::Parameters::apply is
  // where unknown keys and out-of-range values must die with a named
  // error instead of silently keeping defaults. Pin the contract at this
  // seam: parse succeeds, apply rejects.
  Config config;
  std::string error;
  ASSERT_TRUE(
      config.parse_ini("num_nodes = 30\nnum_nodez = 40\n", &error)) << error;
  const std::string err = p2p::scenario::Parameters{}.apply(config);
  ASSERT_NE(err, "");
  EXPECT_NE(err.find("num_nodez"), std::string::npos) << err;

  Config bad_value;
  ASSERT_TRUE(bad_value.parse_ini("duration_s = -10\n", &error)) << error;
  EXPECT_NE(p2p::scenario::Parameters{}.apply(bad_value), "");

  Config not_a_number;
  ASSERT_TRUE(not_a_number.parse_ini("radio_range = far\n", &error)) << error;
  const std::string err2 = p2p::scenario::Parameters{}.apply(not_a_number);
  ASSERT_NE(err2, "");
  EXPECT_NE(err2.find("radio_range"), std::string::npos) << err2;
  EXPECT_NE(err2.find("far"), std::string::npos) << err2;
}

TEST(Config, ParseOverride) {
  Config config;
  std::string error;
  ASSERT_TRUE(config.parse_override("num_nodes=150", &error)) << error;
  EXPECT_EQ(config.get_string("num_nodes"), "150");
  ASSERT_TRUE(config.parse_override(" spaced = value ", &error));
  EXPECT_EQ(config.get_string("spaced"), "value");
  EXPECT_FALSE(config.parse_override("noequals", &error));
  EXPECT_FALSE(config.parse_override("=bare", &error));
}

TEST(Config, KeysSorted) {
  Config config;
  config.set("zebra", "1");
  config.set("alpha", "2");
  EXPECT_EQ(config.keys(), (std::vector<std::string>{"alpha", "zebra"}));
}

TEST(Config, LaterSetWins) {
  Config config;
  config.set("k", "1");
  config.set("k", "2");
  EXPECT_EQ(config.get_string("k"), "2");
  EXPECT_EQ(config.size(), 1U);
}

// ---- util/json.hpp: the daemon's wire-format reader ---------------------

TEST(Json, ParsesScalarsObjectsAndArrays) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(parse_json(
      " {\"a\": 1.5, \"b\": \"x\\n\\u0041\", \"c\": [true, null, -2]} ", &v,
      &error))
      << error;
  ASSERT_TRUE(v.is_object());
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_DOUBLE_EQ(v.find("a")->number, 1.5);
  EXPECT_EQ(v.find("a")->raw, "1.5");  // raw span preserved for splicing
  EXPECT_EQ(v.find("b")->string, "x\nA");
  const JsonValue* c = v.find("c");
  ASSERT_TRUE(c->is_array());
  ASSERT_EQ(c->array.size(), 3U);
  EXPECT_TRUE(c->array[0].boolean);
  EXPECT_TRUE(c->array[1].is_null());
  EXPECT_DOUBLE_EQ(c->array[2].number, -2.0);
}

TEST(Json, AsUintGuardsIntegralNonNegative) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(parse_json("[7, 0, -1, 1.5, \"7\", 1e17]", &v, &error));
  EXPECT_EQ(v.array[0].as_uint(), 7ULL);
  EXPECT_EQ(v.array[1].as_uint(), 0ULL);
  EXPECT_FALSE(v.array[2].as_uint().has_value());  // negative
  EXPECT_FALSE(v.array[3].as_uint().has_value());  // fractional
  EXPECT_FALSE(v.array[4].as_uint().has_value());  // string
  EXPECT_FALSE(v.array[5].as_uint().has_value());  // above 2^53
}

TEST(Json, RejectsHostileInputWithOffsets) {
  const char* cases[] = {
      "",            "{",         "{\"a\":}",   "[1,]",
      "{\"a\" 1}",   "tru",       "1 2",        "\"unterminated",
      "{\"a\":1}}",  "nan",       "inf",        "\"bad \\q escape\"",
  };
  for (const char* text : cases) {
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parse_json(text, &v, &error)) << "accepted: " << text;
    EXPECT_NE(error.find("offset"), std::string::npos) << text;
  }
  // Nesting past max_depth must fail cleanly, not overflow the stack.
  std::string deep;
  for (int i = 0; i < 2000; ++i) deep += "[";
  JsonValue v;
  std::string error;
  EXPECT_FALSE(parse_json(deep, &v, &error));
}

TEST(Json, DuplicateKeysLastWinsAndQuoteRoundTrips) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(parse_json("{\"k\":1,\"k\":2}", &v, &error)) << error;
  ASSERT_NE(v.find("k"), nullptr);
  EXPECT_DOUBLE_EQ(v.find("k")->number, 2.0);

  std::string quoted;
  append_json_string(&quoted, "a\"b\\c\n\x01");
  EXPECT_EQ(quoted, "\"a\\\"b\\\\c\\n\\u0001\"");
}

}  // namespace
