/**
 * @file
 * writeFileAtomic: publish/replace semantics, failure containment
 * (an aborted publish must never leave the destination torn), and
 * the injected-fault paths the fault hook drives - ENOSPC, torn
 * writes behind a successful rename, and the EXDEV copy fallback.
 */

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/atomic_file.hh"

namespace tdp {
namespace {

namespace fs = std::filesystem;

class AtomicFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("tdp-atomic-file-test-" + std::to_string(::getpid()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        path_ = (dir_ / "artefact.bin").string();
    }

    void
    TearDown() override
    {
        setIoFaultHook(IoFaultHook());
        fs::remove_all(dir_);
    }

    std::string
    readAll(const std::string &path) const
    {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    }

    static std::function<bool(std::ostream &)>
    writerOf(const std::string &payload)
    {
        return [payload](std::ostream &os) {
            os << payload;
            return static_cast<bool>(os);
        };
    }

    /** No temp droppings may survive a publish, good or bad. */
    size_t
    fileCount() const
    {
        size_t n = 0;
        for ([[maybe_unused]] const auto &entry :
             fs::directory_iterator(dir_))
            ++n;
        return n;
    }

    fs::path dir_;
    std::string path_;
};

TEST_F(AtomicFileTest, WritesAndReplaces)
{
    std::string error;
    ASSERT_TRUE(writeFileAtomic(path_, writerOf("first"), &error))
        << error;
    EXPECT_EQ(readAll(path_), "first");

    ASSERT_TRUE(writeFileAtomic(path_, writerOf("second"), &error))
        << error;
    EXPECT_EQ(readAll(path_), "second");
    EXPECT_EQ(fileCount(), 1u);
}

TEST_F(AtomicFileTest, WriterFailureLeavesOldContentIntact)
{
    ASSERT_TRUE(writeFileAtomic(path_, writerOf("keep me")));

    std::string error;
    const bool ok = writeFileAtomic(
        path_,
        [](std::ostream &os) {
            os << "half a payl";
            return false; // writer aborts
        },
        &error);
    EXPECT_FALSE(ok);
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(readAll(path_), "keep me");
    EXPECT_EQ(fileCount(), 1u);
}

TEST_F(AtomicFileTest, EnospcFaultFailsAndPreservesDestination)
{
    ASSERT_TRUE(writeFileAtomic(path_, writerOf("survivor")));

    setIoFaultHook(
        [](const std::string &) { return IoFault::Enospc; });
    EXPECT_TRUE(ioFaultHookInstalled());

    std::string error;
    EXPECT_FALSE(writeFileAtomic(path_, writerOf("doomed"), &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(readAll(path_), "survivor");
    EXPECT_EQ(fileCount(), 1u);
}

TEST_F(AtomicFileTest, TornWriteFaultPublishesTruncatedPayload)
{
    const std::string payload(256, 'x');
    setIoFaultHook(
        [](const std::string &) { return IoFault::TornWrite; });

    // The torn publish *succeeds* - that is the whole point: the
    // rename lands, the payload is short, and only reader-side
    // checksums can catch it.
    std::string error;
    ASSERT_TRUE(writeFileAtomic(path_, writerOf(payload), &error))
        << error;
    const std::string published = readAll(path_);
    EXPECT_LT(published.size(), payload.size());
    EXPECT_EQ(published, payload.substr(0, published.size()));
}

TEST_F(AtomicFileTest, ExdevFaultFallsBackAndPublishesIdentically)
{
    const std::string payload = "cross-filesystem payload";
    setIoFaultHook(
        [](const std::string &) { return IoFault::Exdev; });

    std::string error;
    ASSERT_TRUE(writeFileAtomic(path_, writerOf(payload), &error))
        << error;
    EXPECT_EQ(readAll(path_), payload);
    EXPECT_EQ(fileCount(), 1u);
}

TEST_F(AtomicFileTest, ExplicitTmpDirIsUsedAndCleaned)
{
    const fs::path scratch = dir_ / "scratch";
    fs::create_directories(scratch);

    AtomicWriteOptions options;
    options.tmpDir = scratch.string();
    std::string error;
    ASSERT_TRUE(writeFileAtomic(path_, writerOf("via scratch"),
                                &error, options))
        << error;
    EXPECT_EQ(readAll(path_), "via scratch");
    EXPECT_TRUE(fs::is_empty(scratch));
}

TEST_F(AtomicFileTest, HookInstallAndRemove)
{
    EXPECT_FALSE(ioFaultHookInstalled());
    setIoFaultHook([](const std::string &) { return IoFault::None; });
    EXPECT_TRUE(ioFaultHookInstalled());
    setIoFaultHook(IoFaultHook());
    EXPECT_FALSE(ioFaultHookInstalled());
}

TEST_F(AtomicFileTest, FaultHookSeesTheDestinationPath)
{
    std::string seen;
    setIoFaultHook([&seen](const std::string &path) {
        seen = path;
        return IoFault::None;
    });
    ASSERT_TRUE(writeFileAtomic(path_, writerOf("payload")));
    EXPECT_EQ(seen, path_);
}

TEST_F(AtomicFileTest, MissingParentDirectoryFails)
{
    const std::string orphan =
        (dir_ / "missing" / "deep" / "file.bin").string();
    std::string error;
    EXPECT_FALSE(writeFileAtomic(orphan, writerOf("x"), &error));
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace tdp
