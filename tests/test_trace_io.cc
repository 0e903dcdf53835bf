/**
 * @file
 * Trace I/O error paths and round-trip property.
 *
 * readTrace() reports malformed input through fatal() (exit code 1),
 * so the error paths are exercised as death tests: missing file, bad
 * magic, a truncated header, and a record-count mismatch (the header
 * promises more records than the file holds). The round-trip test
 * writes a randomized trace and checks bit-exact recovery, plus the
 * cyclic replay semantics of TracePattern and the lifetime of its
 * shared buffer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "workload/trace.hh"

namespace banshee {
namespace {

class TraceIoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "trace_io_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".bshtrc";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    /** Write raw bytes to the test path. */
    void
    writeRaw(const std::string &bytes)
    {
        std::FILE *f = std::fopen(path_.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
    }

    /** A well-formed file for @p records (via the real writer). */
    std::string
    validBytes(const std::vector<TraceRecord> &records)
    {
        EXPECT_TRUE(writeTrace(path_, records));
        std::FILE *f = std::fopen(path_.c_str(), "rb");
        EXPECT_NE(f, nullptr);
        std::string bytes;
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            bytes.append(buf, n);
        std::fclose(f);
        return bytes;
    }

    std::string path_;
};

using TraceIoDeathTest = TraceIoTest;

TEST_F(TraceIoDeathTest, MissingFileIsFatal)
{
    EXPECT_EXIT(readTrace(path_ + ".does-not-exist"),
                ::testing::ExitedWithCode(1), "cannot open trace file");
}

TEST_F(TraceIoDeathTest, BadMagicIsFatal)
{
    writeRaw("NOTATRACEFILE-DEFINITELY-NOT................");
    EXPECT_EXIT(readTrace(path_), ::testing::ExitedWithCode(1),
                "not a Banshee trace file");
}

TEST_F(TraceIoDeathTest, TruncatedHeaderIsFatal)
{
    // Valid magic but the record count is cut short.
    writeRaw(std::string("BSHTRC01") + "\x05\x00");
    EXPECT_EXIT(readTrace(path_), ::testing::ExitedWithCode(1),
                "truncated header");
}

TEST_F(TraceIoDeathTest, RecordCountMismatchIsFatal)
{
    // A well-formed 3-record file, chopped mid-record: the header
    // still promises 3 records but only 1.5 are present.
    std::vector<TraceRecord> records(3);
    records[0].addr = 0x1000;
    records[1].addr = 0x2000;
    records[2].addr = 0x3000;
    const std::string bytes = validBytes(records);
    writeRaw(bytes.substr(0, 16 + 16 + 8));
    EXPECT_EXIT(readTrace(path_), ::testing::ExitedWithCode(1),
                "truncated at record 1");
}

TEST_F(TraceIoDeathTest, EmptyFileIsFatal)
{
    writeRaw("");
    EXPECT_EXIT(readTrace(path_), ::testing::ExitedWithCode(1),
                "not a Banshee trace file");
}

TEST_F(TraceIoTest, WriteReadRoundTripIsBitExact)
{
    Rng rng(12345);
    std::vector<TraceRecord> records(1000);
    for (auto &r : records) {
        r.addr = rng.next() & ((1ull << 48) - 1);
        r.flags = static_cast<std::uint8_t>(rng.nextBelow(4));
        r.nonMemBefore = static_cast<std::uint8_t>(rng.nextBelow(256));
    }

    ASSERT_TRUE(writeTrace(path_, records));
    const std::vector<TraceRecord> back = readTrace(path_);

    ASSERT_EQ(back.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(back[i].addr, records[i].addr) << i;
        EXPECT_EQ(back[i].flags, records[i].flags) << i;
        EXPECT_EQ(back[i].nonMemBefore, records[i].nonMemBefore) << i;
    }
}

TEST_F(TraceIoTest, EmptyTraceRoundTripsButCannotReplay)
{
    ASSERT_TRUE(writeTrace(path_, {}));
    EXPECT_TRUE(readTrace(path_).empty());
}

TEST_F(TraceIoTest, TracePatternReplaysCyclically)
{
    std::vector<TraceRecord> records(3);
    records[0].addr = 0x1000;
    records[1].addr = 0x2000;
    records[1].flags = TraceRecord::kWrite;
    records[2].addr = 0x3000;
    ASSERT_TRUE(writeTrace(path_, records));

    auto pattern = TracePattern::sharedFromFile(path_);
    ASSERT_EQ(pattern->size(), 3u);
    Rng rng(1);
    for (int loop = 0; loop < 3; ++loop) {
        EXPECT_EQ(pattern->next(rng).addr, 0x1000u);
        const MemOp second = pattern->next(rng);
        EXPECT_EQ(second.addr, 0x2000u);
        EXPECT_TRUE(second.isWrite);
        EXPECT_EQ(pattern->next(rng).addr, 0x3000u);
    }
}

TEST_F(TraceIoTest, WriteToUnwritablePathReturnsFalse)
{
    EXPECT_FALSE(writeTrace("/nonexistent-dir/x/y/trace.bshtrc", {}));
}

TEST_F(TraceIoTest, SharedLoadSharesOneBufferWithIndependentCursors)
{
    std::vector<TraceRecord> records(3);
    records[0].addr = 0x1000;
    records[1].addr = 0x2000;
    records[2].addr = 0x3000;
    ASSERT_TRUE(writeTrace(path_, records));

    // Two "cores" replaying the same file share one in-memory buffer.
    auto core0 = TracePattern::sharedFromFile(path_);
    auto core1 = TracePattern::sharedFromFile(path_);
    EXPECT_EQ(core0->buffer().get(), core1->buffer().get());

    // ...but advance independently: core0 runs ahead, core1 must
    // still see the trace from the top.
    Rng rng(1);
    EXPECT_EQ(core0->next(rng).addr, 0x1000u);
    EXPECT_EQ(core0->next(rng).addr, 0x2000u);
    EXPECT_EQ(core1->next(rng).addr, 0x1000u);
    EXPECT_EQ(core0->next(rng).addr, 0x3000u);
    EXPECT_EQ(core1->next(rng).addr, 0x2000u);

    // The cache holds no reference of its own: the buffer lives while
    // either pattern does and dies with the last one.
    const std::weak_ptr<const std::vector<TraceRecord>> buffer =
        core0->buffer();
    core0.reset();
    EXPECT_FALSE(buffer.expired());
    core1.reset();
    EXPECT_TRUE(buffer.expired());
}

TEST_F(TraceIoTest, LoadAfterTheLastPatternDiesReadsTheFileAgain)
{
    std::vector<TraceRecord> records(1);
    records[0].addr = 0x1000;
    ASSERT_TRUE(writeTrace(path_, records));
    Rng rng(1);
    auto first = TracePattern::sharedFromFile(path_);
    EXPECT_EQ(first->next(rng).addr, 0x1000u);
    first.reset();

    records[0].addr = 0x2000;
    ASSERT_TRUE(writeTrace(path_, records));
    auto second = TracePattern::sharedFromFile(path_);
    EXPECT_EQ(second->next(rng).addr, 0x2000u);
}

} // namespace
} // namespace banshee
