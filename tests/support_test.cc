#include <gtest/gtest.h>

#include <filesystem>
#include <functional>

#include "src/obs/run_report.h"
#include "src/obs/snapshot.h"
#include "src/support/bit_value.h"
#include "src/support/error.h"
#include "src/support/file_io.h"
#include "src/support/json.h"
#include "src/support/rng.h"

namespace gauntlet {
namespace {

TEST(BitValueTest, ConstructionMasksToWidth) {
  EXPECT_EQ(BitValue(8, 256).bits(), 0u);
  EXPECT_EQ(BitValue(8, 255).bits(), 255u);
  EXPECT_EQ(BitValue(4, 0x1f).bits(), 0xfu);
  EXPECT_EQ(BitValue(64, ~uint64_t{0}).bits(), ~uint64_t{0});
}

TEST(BitValueTest, WidthOutOfRangeIsCompilerBug) {
  EXPECT_THROW(BitValue(0, 1), CompilerBugError);
  EXPECT_THROW(BitValue(65, 1), CompilerBugError);
}

TEST(BitValueTest, ModularAdd) {
  EXPECT_EQ(BitValue(8, 200).Add(BitValue(8, 100)).bits(), 44u);
  EXPECT_EQ(BitValue(8, 1).Add(BitValue(8, 255)).bits(), 0u);
  EXPECT_EQ(BitValue(64, ~uint64_t{0}).Add(BitValue(64, 1)).bits(), 0u);
}

TEST(BitValueTest, ModularSubWraps) {
  EXPECT_EQ(BitValue(8, 0).Sub(BitValue(8, 1)).bits(), 255u);
  EXPECT_EQ(BitValue(4, 3).Sub(BitValue(4, 5)).bits(), 14u);
}

TEST(BitValueTest, ModularMul) {
  EXPECT_EQ(BitValue(8, 16).Mul(BitValue(8, 16)).bits(), 0u);
  EXPECT_EQ(BitValue(8, 15).Mul(BitValue(8, 17)).bits(), 255u);
}

TEST(BitValueTest, WidthMismatchIsCompilerBug) {
  EXPECT_THROW(BitValue(8, 1).Add(BitValue(9, 1)), CompilerBugError);
  EXPECT_THROW(BitValue(8, 1).And(BitValue(4, 1)), CompilerBugError);
}

TEST(BitValueTest, BitwiseOps) {
  EXPECT_EQ(BitValue(8, 0xf0).And(BitValue(8, 0x3c)).bits(), 0x30u);
  EXPECT_EQ(BitValue(8, 0xf0).Or(BitValue(8, 0x0f)).bits(), 0xffu);
  EXPECT_EQ(BitValue(8, 0xff).Xor(BitValue(8, 0x0f)).bits(), 0xf0u);
  EXPECT_EQ(BitValue(8, 0x0f).Not().bits(), 0xf0u);
  EXPECT_EQ(BitValue(3, 0).Not().bits(), 7u);
}

TEST(BitValueTest, ShiftWithinRange) {
  EXPECT_EQ(BitValue(8, 1).Shl(BitValue(8, 4)).bits(), 16u);
  EXPECT_EQ(BitValue(8, 0x80).Shr(BitValue(8, 7)).bits(), 1u);
}

TEST(BitValueTest, OversizedShiftYieldsZero) {
  // P4-16 section 8.5: shifts >= width produce 0 for unsigned values.
  EXPECT_EQ(BitValue(8, 0xff).Shl(BitValue(8, 8)).bits(), 0u);
  EXPECT_EQ(BitValue(8, 0xff).Shr(BitValue(8, 200)).bits(), 0u);
}

TEST(BitValueTest, SliceExtractsInclusiveRange) {
  const BitValue value(8, 0b10110100);
  EXPECT_EQ(value.Slice(7, 4).bits(), 0b1011u);
  EXPECT_EQ(value.Slice(7, 4).width(), 4u);
  EXPECT_EQ(value.Slice(3, 0).bits(), 0b0100u);
  EXPECT_EQ(value.Slice(2, 2).bits(), 1u);
  EXPECT_EQ(value.Slice(2, 2).width(), 1u);
}

TEST(BitValueTest, SliceOutOfRangeIsCompilerBug) {
  EXPECT_THROW(BitValue(8, 0).Slice(8, 0), CompilerBugError);
  EXPECT_THROW(BitValue(8, 0).Slice(2, 3), CompilerBugError);
}

TEST(BitValueTest, SetSliceReplacesField) {
  const BitValue value(8, 0b11111111);
  EXPECT_EQ(value.SetSlice(5, 2, BitValue(4, 0)).bits(), 0b11000011u);
  EXPECT_EQ(value.SetSlice(0, 0, BitValue(1, 0)).bits(), 0b11111110u);
  EXPECT_EQ(value.SetSlice(7, 7, BitValue(1, 0)).bits(), 0b01111111u);
}

TEST(BitValueTest, SetSliceWidthMismatchIsCompilerBug) {
  EXPECT_THROW(BitValue(8, 0).SetSlice(5, 2, BitValue(3, 0)), CompilerBugError);
}

TEST(BitValueTest, ConcatPutsFirstOperandHigh) {
  const BitValue result = BitValue(4, 0xa).Concat(BitValue(4, 0x5));
  EXPECT_EQ(result.width(), 8u);
  EXPECT_EQ(result.bits(), 0xa5u);
}

TEST(BitValueTest, ConcatOver64BitsIsCompilerBug) {
  EXPECT_THROW(BitValue(64, 0).Concat(BitValue(1, 0)), CompilerBugError);
}

TEST(BitValueTest, CastTruncatesAndZeroExtends) {
  EXPECT_EQ(BitValue(8, 0xff).Cast(4).bits(), 0xfu);
  EXPECT_EQ(BitValue(4, 0xf).Cast(8).bits(), 0xfu);
  EXPECT_EQ(BitValue(8, 0x80).Cast(16).bits(), 0x80u);  // zero-extension, not sign
}

TEST(BitValueTest, ComparisonsAreUnsigned) {
  EXPECT_TRUE(BitValue(8, 0x80).Lt(BitValue(8, 0xff)));
  EXPECT_FALSE(BitValue(8, 0xff).Lt(BitValue(8, 0x7f)));
  EXPECT_TRUE(BitValue(8, 5).Le(BitValue(8, 5)));
  EXPECT_TRUE(BitValue(8, 5).Eq(BitValue(8, 5)));
}

TEST(BitValueTest, ToStringUsesP4Syntax) {
  EXPECT_EQ(BitValue(8, 255).ToString(), "8w255");
  EXPECT_EQ(BitValue(1, 1).ToString(), "1w1");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 10; ++i) {
    differences += a.Next() != b.Next() ? 1 : 0;
  }
  EXPECT_GT(differences, 5);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(10), 10u);
  }
}

TEST(RngTest, RangeIsInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t value = rng.Range(3, 5);
    EXPECT_GE(value, 3u);
    EXPECT_LE(value, 5u);
    saw_lo |= value == 3;
    saw_hi |= value == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0));
    EXPECT_TRUE(rng.Chance(100));
  }
}

TEST(RngTest, PickWeightedRespectsZeroWeights) {
  Rng rng(11);
  const std::vector<uint32_t> weights = {0, 10, 0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.PickWeighted(weights), 1u);
  }
}

TEST(RngTest, PickWeightedCoversAllPositive) {
  Rng rng(13);
  const std::vector<uint32_t> weights = {1, 1, 1};
  std::vector<int> histogram(3, 0);
  for (int i = 0; i < 3000; ++i) {
    ++histogram[rng.PickWeighted(weights)];
  }
  for (const int count : histogram) {
    EXPECT_GT(count, 700);
  }
}

TEST(RngTest, PickFromEmptyIsCompilerBug) {
  Rng rng(1);
  const std::vector<int> empty;
  EXPECT_THROW(rng.PickFrom(empty), CompilerBugError);
}

// --- json -------------------------------------------------------------------

TEST(JsonTest, ParsesEveryKindAndRecordsByteSpans) {
  const std::string text = R"( {"a": [1, true, false, null], "b": {"c": "x\"\u00ff"}} )";
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(text, &root, &error)) << error;
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(text.substr(root.begin, root.end - root.begin), text.substr(1, text.size() - 2));
  const JsonValue* a = root.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 4u);
  EXPECT_EQ(a->items[0].number, 1u);
  EXPECT_TRUE(a->items[1].boolean);
  EXPECT_EQ(a->items[2].kind, JsonValue::Kind::kBool);
  EXPECT_FALSE(a->items[2].boolean);
  EXPECT_EQ(a->items[3].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(text.substr(a->begin, a->end - a->begin), "[1, true, false, null]");
  const JsonValue* c = root.Find("b")->Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->string, "x\"\xff");
  EXPECT_EQ(root.Find("missing"), nullptr);
  EXPECT_EQ(a->Find("a"), nullptr);  // not an object
}

TEST(JsonTest, InvertsJsonQuotedForEveryByte) {
  std::string all_bytes;
  for (int byte = 0; byte < 256; ++byte) {
    all_bytes.push_back(static_cast<char>(byte));
  }
  JsonValue value;
  std::string error;
  ASSERT_TRUE(ParseJson(JsonQuoted(all_bytes), &value, &error)) << error;
  EXPECT_EQ(value.string, all_bytes);
  // Raw bytes >= 0x7f (what older corpus writers emitted) read back as-is.
  ASSERT_TRUE(ParseJson("\"\x7f\xfe\"", &value, &error)) << error;
  EXPECT_EQ(value.string, "\x7f\xfe");
}

TEST(JsonTest, AcceptsTheFullUint64Range) {
  JsonValue value;
  std::string error;
  ASSERT_TRUE(ParseJson("18446744073709551615", &value, &error)) << error;
  EXPECT_EQ(value.number, UINT64_MAX);
  ASSERT_TRUE(ParseJson("0", &value, &error)) << error;
  EXPECT_EQ(value.number, 0u);
}

TEST(JsonTest, RejectsWhatNoWriterProduces) {
  const std::string deep = std::string(100, '[') + std::string(100, ']');
  for (const std::string& bad : std::vector<std::string>{
           "", " ", "18446744073709551616", "-1", "1.5", "1e3", "01", "{\"a\":1,\"a\":2}",
           "{\"a\":1,}", "[1,]", "{\"a\" 1}", "{1:2}", "\"\x01\"", "\"\\u0100\"", "\"\\u00g0\"",
           "\"\\q\"", "\"open", "tru", "nul", "{} {}", "{}x", "{\"x\":{]}", deep}) {
    JsonValue value;
    std::string error;
    EXPECT_FALSE(ParseJson(bad, &value, &error)) << "accepted: " << bad;
    EXPECT_NE(error.find("at offset"), std::string::npos) << bad;
  }
}

// --- file io -------------------------------------------------------------------

TEST(FileIoTest, ReadsBackWhatWasWrittenAtomically) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "gauntlet_support_file_io").string();
  const std::string content("bytes \0\xff\n", 9);
  ASSERT_TRUE(WriteFileAtomic(path, content));
  std::string read;
  ASSERT_TRUE(ReadFile(path, &read));
  EXPECT_EQ(read, content);
  std::filesystem::remove(path);
  EXPECT_FALSE(ReadFile(path, &read));
  EXPECT_FALSE(ReadFile(std::filesystem::temp_directory_path().string(), &read));
}

// --- reader defects ------------------------------------------------------------

// Inputs the per-module readers used to accept, wrap or die on. Each must be
// rejected with its format's normal error: false plus a message.
struct ReaderDefect {
  const char* name;
  std::function<bool(std::string* error)> read;
};

void PrintTo(const ReaderDefect& defect, std::ostream* out) { *out << defect.name; }

std::function<bool(std::string*)> SnapshotReader(const char* text) {
  return [text](std::string* error) {
    Snapshot snapshot;
    return ParseSnapshotJson(text, &snapshot, error);
  };
}

const ReaderDefect kReaderDefects[] = {
    {"CoverageCountPastUint64",
     [](std::string* error) {
       MetricsRegistry metrics;
       return ParseMetricsJson(R"({"version": 2, "deterministic": {"coverage/d/p": )"
                               R"(18446744073709551617}, "timing": {}})",
                               &metrics, error);
     }},
    // The snapshot doubles as the driver's heartbeat (src/obs/health.h).
    {"HeartbeatWithBrokenNestedValue",
     SnapshotReader(R"({"version":2,"role":"x","phase":"done","pid":1,"x":{]})")},
    {"HeartbeatFieldOfTheWrongType", SnapshotReader(R"({"version":2,"pid":"1"})")},
    {"SnapshotWithBrokenNestedValue",
     SnapshotReader(R"({"version":2,"phase":"done","x":[}})")},
};

class ReaderDefectTest : public ::testing::TestWithParam<ReaderDefect> {};

TEST_P(ReaderDefectTest, IsRejectedWithTheFormatsError) {
  std::string error;
  EXPECT_FALSE(GetParam().read(&error));
  EXPECT_FALSE(error.empty());
}

INSTANTIATE_TEST_SUITE_P(Corrupt, ReaderDefectTest, ::testing::ValuesIn(kReaderDefects),
                         [](const ::testing::TestParamInfo<ReaderDefect>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace gauntlet
