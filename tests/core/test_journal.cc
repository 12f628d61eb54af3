// The journal reader's failure model, held exhaustively: a torn tail
// (SIGKILL mid-append) is recovered by truncation, every other defect in
// a complete record — bit flips, wrong length, bad sequence numbers —
// raises JournalError. The sweeps below try truncation at every byte
// offset and a flip of every bit of a journal; the reader must recover
// or fail cleanly on each one, never crash, loop, or accept a corrupt
// record.
#include "core/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/json.h"

namespace ceal {
namespace {

json::Value payload(std::uint64_t i) {
  json::Value v = json::Value::object();
  v.set("kind", json::Value::string("test"));
  v.set("i", json::Value::number(i));
  v.set("data", json::Value::string("abc*def"));  // '*' flips to '\n'
  return v;
}

/// A well-formed journal of `n` records as raw bytes.
std::string sample_journal(std::uint64_t n) {
  std::string text;
  for (std::uint64_t i = 0; i < n; ++i) {
    text += frame_journal_record(i, payload(i).dump());
  }
  return text;
}

class JournalFileTest : public ::testing::Test {
 protected:
  JournalFileTest()
      : path_(::testing::TempDir() + "ceal_test." +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".cealj") {
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void write_raw(const std::string& bytes) {
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os << bytes;
  }

  std::string path_;
};

TEST(Crc32, MatchesKnownVectors) {
  // Reference values from the IEEE 802.3 / zlib polynomial.
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"),
            0x414fa339u);
}

TEST(JournalText, EmptyInputIsAValidEmptyJournal) {
  const auto result = read_journal_text("", "mem");
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.valid_bytes, 0u);
  EXPECT_FALSE(result.torn_tail);
}

TEST(JournalText, RoundTripsEveryRecordInOrder) {
  const std::string text = sample_journal(5);
  const auto result = read_journal_text(text, "mem");
  ASSERT_EQ(result.records.size(), 5u);
  EXPECT_EQ(result.valid_bytes, text.size());
  EXPECT_FALSE(result.torn_tail);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(result.records[i].dump(), payload(i).dump());
  }
}

TEST(JournalText, TruncationAtEveryByteOffsetRecoversThePrefix) {
  // A journal cut at any byte is what SIGKILL leaves behind. The reader
  // must hand back exactly the records that fit completely and flag the
  // remainder as a torn tail — and never throw.
  const std::string text = sample_journal(4);
  // Record boundaries: offsets just after each '\n'.
  std::vector<std::size_t> boundaries{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') boundaries.push_back(i + 1);
  }
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    JournalReadResult result;
    ASSERT_NO_THROW(result = read_journal_text(text.substr(0, cut), "mem"));
    // Number of whole records before the cut.
    std::size_t whole = 0;
    while (whole + 1 < boundaries.size() && boundaries[whole + 1] <= cut) {
      ++whole;
    }
    EXPECT_EQ(result.records.size(), whole);
    EXPECT_EQ(result.valid_bytes, boundaries[whole]);
    EXPECT_EQ(result.torn_tail, cut != boundaries[whole]);
    for (std::size_t i = 0; i < whole; ++i) {
      EXPECT_EQ(result.records[i].dump(), payload(i).dump());
    }
  }
}

TEST(JournalText, EverySingleBitFlipIsRejectedOrTruncated) {
  // Flip every bit of every byte. The only flip the reader cannot
  // distinguish from a crash is one that destroys the final newline
  // (the tail then looks torn and is dropped); every other flip lands
  // in a complete line and must raise JournalError — CRC for payload
  // bytes, the structural checks for the frame head.
  const std::string text = sample_journal(3);
  const auto intact = read_journal_text(text, "mem");
  ASSERT_EQ(intact.records.size(), 3u);
  for (std::size_t byte = 0; byte < text.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("flip byte " + std::to_string(byte) + " bit " +
                   std::to_string(bit));
      std::string corrupt = text;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      if (byte == text.size() - 1) {
        // The final newline became another byte: indistinguishable from
        // a torn tail, so the last record is dropped, not accepted.
        JournalReadResult result;
        ASSERT_NO_THROW(result = read_journal_text(corrupt, "mem"));
        EXPECT_EQ(result.records.size(), 2u);
        EXPECT_TRUE(result.torn_tail);
      } else {
        EXPECT_THROW(read_journal_text(corrupt, "mem"), JournalError);
      }
    }
  }
}

TEST(JournalText, RejectsDuplicateSequenceNumbers) {
  const std::string p = payload(0).dump();
  const std::string text =
      frame_journal_record(0, p) + frame_journal_record(0, p);
  try {
    read_journal_text(text, "mem");
    FAIL() << "duplicate sequence number accepted";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("mem:record 2"), std::string::npos)
        << e.what();
  }
}

TEST(JournalText, RejectsOutOfOrderSequenceNumbers) {
  const std::string text = frame_journal_record(1, payload(0).dump());
  EXPECT_THROW(read_journal_text(text, "mem"), JournalError);
  const std::string swapped = frame_journal_record(1, payload(0).dump()) +
                              frame_journal_record(0, payload(1).dump());
  EXPECT_THROW(read_journal_text(swapped, "mem"), JournalError);
}

TEST(JournalText, RejectsOversizedDeclaredLength) {
  // A declared length past the line's actual payload must not make the
  // reader read out of bounds or swallow the next record.
  const std::string text = "J1 0 999 00000000 {}\n";
  EXPECT_THROW(read_journal_text(text, "mem"), JournalError);
  const std::string huge = "J1 0 99999999999999999999 00000000 {}\n";
  EXPECT_THROW(read_journal_text(huge, "mem"), JournalError);
}

TEST(JournalText, RejectsNonObjectPayloads) {
  // Structurally valid frame, but the payload is not a JSON object.
  const std::string text = frame_journal_record(0, "[1,2,3]");
  EXPECT_THROW(read_journal_text(text, "mem"), JournalError);
  const std::string garbage = frame_journal_record(0, "not json");
  EXPECT_THROW(read_journal_text(garbage, "mem"), JournalError);
}

TEST(JournalText, ErrorMessagesAreOneLineWithRecordNumber) {
  std::string corrupt = sample_journal(2);
  corrupt[corrupt.size() / 2] ^= 0x40;  // somewhere in record 2
  try {
    read_journal_text(corrupt, "session.cealj");
    FAIL() << "corrupt journal accepted";
  } catch (const JournalError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    EXPECT_EQ(what.find("session.cealj:record "), 0u) << what;
  }
}

TEST_F(JournalFileTest, WriterProducesTheCanonicalFraming) {
  {
    JournalWriter writer(path_);
    for (std::uint64_t i = 0; i < 3; ++i) {
      EXPECT_EQ(writer.append(payload(i)), i);
    }
    EXPECT_EQ(writer.records(), 3u);
  }
  std::ifstream is(path_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, sample_journal(3));
}

TEST_F(JournalFileTest, ResumedWriterContinuesTheSequence) {
  { JournalWriter writer(path_); writer.append(payload(0)); }
  {
    const auto loaded = read_journal_file(path_);
    JournalWriter writer(path_, loaded.records.size());
    writer.append(payload(1));
    writer.append(payload(2));
  }
  const auto result = read_journal_file(path_);
  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_FALSE(result.torn_tail);
}

TEST_F(JournalFileTest, TornTailIsDroppedAndTruncatable) {
  const std::string text = sample_journal(2);
  write_raw(text + "J1 2 17 0abc");  // partial third record, no newline
  const auto result = read_journal_file(path_);
  EXPECT_EQ(result.records.size(), 2u);
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(result.valid_bytes, text.size());
  truncate_journal_file(path_, result.valid_bytes);
  const auto clean = read_journal_file(path_);
  EXPECT_EQ(clean.records.size(), 2u);
  EXPECT_FALSE(clean.torn_tail);
}

TEST_F(JournalFileTest, MissingFileThrows) {
  EXPECT_THROW(read_journal_file(path_ + ".absent"), JournalError);
}

}  // namespace
}  // namespace ceal
