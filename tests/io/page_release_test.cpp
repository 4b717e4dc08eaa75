// release_pages drops pages of a registered file mapping and nothing else:
// on a mapped file the bytes read back equal and RssFile falls; on a
// copy_of block, an istream's buffer or a FIFO's buffer it does nothing
// (dropping heap pages would zero them).
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/byte_slice.hpp"
#include "src/io/file_bytes.hpp"
#include "tests/io/fifo_feed.hpp"
#include "tests/io/temp_dir.hpp"

namespace netfail::io {
namespace {

/// Large enough that a heap block of this size is whole pages of its own.
constexpr std::size_t kBytes = std::size_t{8} << 20;

std::size_t page() { return static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)); }

/// `n` bytes with no zero byte, different on every page, so a page lost
/// or zeroed shows.
std::string pattern(std::size_t n) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>('a' + (i * 7 + i / 4096) % 26);
  }
  return s;
}

std::string write_file(const TempDir& dir, const std::string& bytes) {
  const std::string path = (dir.path() / "events.bin").string();
  std::ofstream(path, std::ios::binary) << bytes;
  return path;
}

/// Reads one byte of every page of `bytes`, so each is resident.
std::uint64_t touch(std::string_view bytes) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < bytes.size(); i += 512) {
    sum += static_cast<unsigned char>(bytes[i]);
  }
  return sum;
}

/// This process's resident file-backed memory, in bytes.
std::size_t rss_file() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("RssFile:", 0) == 0) {
      return std::stoull(line.substr(8)) * 1024;
    }
  }
  return 0;
}

TEST(PageRelease, CopyOfBlockIsLeftIntact) {
  const std::string text = pattern(kBytes);
  const ByteSlice slice = ByteSlice::copy_of(text);
  EXPECT_EQ(release_pages(slice.view()), 0u);
  EXPECT_TRUE(slice.view() == text);
}

TEST(PageRelease, StreamBufferIsLeftIntact) {
  const std::string text = pattern(kBytes);
  std::istringstream in(text);
  const ByteSlice slice = read_stream_bytes(in);
  ASSERT_EQ(slice.size(), text.size());
  EXPECT_EQ(release_pages(slice.view()), 0u);
  EXPECT_TRUE(slice.view() == text);
}

TEST(PageRelease, FifoBufferIsLeftIntact) {
  const TempDir dir;
  const std::string text = pattern(kBytes);
  const Result<ByteSlice> slice = read_through_fifo(
      dir.path() / "events.fifo", text,
      [](const std::string& path) { return read_file_bytes(path); });
  ASSERT_TRUE(slice);
  ASSERT_EQ(slice->size(), text.size());
  EXPECT_EQ(release_pages(slice->view()), 0u);
  EXPECT_TRUE(slice->view() == text);
}

TEST(PageRelease, MappedFileReadsBackEqual) {
  const TempDir dir;
  const std::string text = pattern(kBytes);
  const Result<ByteSlice> mapped = read_file_bytes(write_file(dir, text));
  ASSERT_TRUE(mapped);
  ASSERT_EQ(touch(mapped->view()), touch(text));
  EXPECT_EQ(release_pages(mapped->view()), kBytes);
  EXPECT_TRUE(mapped->view() == text);
}

TEST(PageRelease, RangePastTheMappingIsClamped) {
  const TempDir dir;
  // A partial last page: it holds the file's tail and is never dropped.
  const std::string text = pattern(kBytes + 100);
  const Result<ByteSlice> mapped = read_file_bytes(write_file(dir, text));
  ASSERT_TRUE(mapped);
  const std::string_view all = mapped->view();
  EXPECT_EQ(release_pages(all), kBytes);
  // From the middle to well past the end: clamped at the mapping's end.
  EXPECT_EQ(release_pages({all.data() + kBytes / 2, kBytes}), kBytes / 2);
  // Starting before the mapping: not inside it, so nothing.
  const auto* before_it = reinterpret_cast<const char*>(
      reinterpret_cast<std::uintptr_t>(all.data()) - page());
  EXPECT_EQ(release_pages({before_it, 2 * page()}), 0u);
  // Less than a whole page.
  EXPECT_EQ(release_pages({all.data() + 1, page()}), 0u);
  EXPECT_TRUE(all == text);
}

TEST(PageRelease, RssFileFallsByTheReleasedSize) {
  const TempDir dir;
  const std::string text = pattern(kBytes);
  const Result<ByteSlice> mapped = read_file_bytes(write_file(dir, text));
  ASSERT_TRUE(mapped);
  ASSERT_EQ(touch(mapped->view()), touch(text));
  // A first read faults in the code that reads (after it has read), which
  // would count against the fall.
  rss_file();
  const std::size_t before = rss_file();
  const std::size_t released = release_pages(mapped->view());
  const std::size_t after = rss_file();
  ASSERT_EQ(released, kBytes);
  EXPECT_GE(before, after + released - page())
      << "RssFile " << before << " -> " << after;
}

TEST(PageRelease, ConcurrentReadersBehindTheirCursorsSeeTheFile) {
  // Four readers each walk a quarter of one mapping in 100-byte runs,
  // dropping the pages behind them as the syslog lanes do, while the
  // caller maps and unmaps another file. Every run reads the file's bytes.
  const TempDir dir;
  const std::string text = pattern(kBytes);
  const Result<ByteSlice> mapped = read_file_bytes(write_file(dir, text));
  ASSERT_TRUE(mapped);
  const std::string_view all = mapped->view();
  constexpr std::size_t kReaders = 4;
  const std::size_t quarter = kBytes / kReaders;
  std::vector<std::future<bool>> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.push_back(std::async(std::launch::async, [&, r] {
      bool equal = true;
      ReleaseBehind release(all.data() + r * quarter);
      for (std::size_t at = r * quarter; at < (r + 1) * quarter; at += 100) {
        const std::string_view run = all.substr(at, 100);
        equal = equal && run == std::string_view(text).substr(at, 100);
        release.consumed(run);
      }
      return equal;
    }));
  }
  const std::string other = (dir.path() / "other.bin").string();
  std::ofstream(other, std::ios::binary) << pattern(4 * page());
  for (int i = 0; i < 50; ++i) {
    const Result<ByteSlice> m = read_file_bytes(other);
    ASSERT_TRUE(m);
    release_pages(m->view());
  }
  for (std::future<bool>& f : readers) EXPECT_TRUE(f.get());
  EXPECT_TRUE(all == text);
}

}  // namespace
}  // namespace netfail::io
