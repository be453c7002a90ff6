// The crash-consistent journal (util/journal.h) behind the result
// cache's index: round-trip, torn-tail recovery and truncation, CRC
// failure as a torn tail, foreign files as typed corruption, and the
// refusal to overwrite an existing journal.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "util/journal.h"
#include "util/status.h"

namespace sdf {
namespace {

namespace fs = std::filesystem;

class Journal : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/sdfmem_journal_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const std::string& rel) const {
    return dir_ + "/" + rel;
  }

  std::string dir_;
};

TEST_F(Journal, RoundTripsAndTruncatesTornTail) {
  const std::string journal = path("j.journal");
  {
    util::JournalWriter w = util::JournalWriter::create(journal, "header");
    w.append("one");
    w.append(std::string(1000, 'x'));
    w.append("three");
  }
  util::RecoveredJournal rec = util::recover_journal(journal);
  EXPECT_FALSE(rec.torn_tail);
  ASSERT_EQ(rec.records.size(), 4u);
  EXPECT_EQ(rec.records[0], "header");
  EXPECT_EQ(rec.records[2], std::string(1000, 'x'));
  const std::uint64_t intact = rec.valid_bytes;

  // A torn append: length prefix promising 64 bytes, only 3 present.
  {
    std::ofstream out(journal, std::ios::binary | std::ios::app);
    const char torn[] = {64, 0, 0, 0, 1, 2, 3, 4, 'a', 'b', 'c'};
    out.write(torn, sizeof torn);
  }
  rec = util::recover_journal(journal);
  EXPECT_TRUE(rec.torn_tail);
  ASSERT_EQ(rec.records.size(), 4u);  // intact prefix untouched
  EXPECT_EQ(rec.valid_bytes, intact);

  // Resuming truncates the tail and appends cleanly after it.
  {
    util::JournalWriter w =
        util::JournalWriter::append_to(journal, rec.valid_bytes);
    w.append("four");
  }
  rec = util::recover_journal(journal);
  EXPECT_FALSE(rec.torn_tail);
  ASSERT_EQ(rec.records.size(), 5u);
  EXPECT_EQ(rec.records[4], "four");
}

TEST_F(Journal, CorruptedRecordStopsRecoveryAtLastIntactOne) {
  const std::string journal = path("j.journal");
  {
    util::JournalWriter w = util::JournalWriter::create(journal, "header");
    w.append("one");
    w.append("two");
  }
  // Flip a payload byte of the last record: its CRC now fails, so
  // recovery must treat it (and everything after) as a torn tail.
  {
    std::fstream f(journal,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    f.put('X');
  }
  const util::RecoveredJournal rec = util::recover_journal(journal);
  EXPECT_TRUE(rec.torn_tail);
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(rec.records[1], "one");
}

TEST_F(Journal, NonJournalsAreCorruptNotTorn) {
  const std::string bad = path("not_a_journal");
  std::ofstream(bad) << "definitely not SDFJRNL1 content";
  EXPECT_THROW((void)util::recover_journal(bad), CorruptJournalError);

  const std::string empty = path("empty");
  std::ofstream(empty).flush();
  EXPECT_THROW((void)util::recover_journal(empty), CorruptJournalError);

  EXPECT_THROW((void)util::recover_journal(path("missing")), IoError);

  // A corrupt journal carries the documented error code.
  try {
    (void)util::recover_journal(bad);
    FAIL();
  } catch (const CorruptJournalError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptJournal);
  }
}

TEST_F(Journal, CreateRefusesToOverwriteAJournal) {
  const std::string journal = path("j.journal");
  { (void)util::JournalWriter::create(journal, "h"); }
  EXPECT_THROW((void)util::JournalWriter::create(journal, "h"),
               BadArgumentError);
}

// --- scan_jobs ----------------------------------------------------------
}  // namespace
}  // namespace sdf
