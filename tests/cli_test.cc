// The exit-code contract of docs/MANUAL.md, asserted by running the real
// binaries: every error path of iawj_cli and iawj_serve must exit with its
// documented code, and a multi-window iawj_cli run must print real metrics.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "src/io/workload_io.h"
#include "src/stream/stream.h"

namespace iawj {
namespace {

#if defined(IAWJ_CLI_BIN) && defined(IAWJ_SERVE_BIN)

struct Outcome {
  int exit_code = -1;
  std::string output;  // stdout and stderr
};

Outcome RunCommand(const std::string& command) {
  Outcome outcome;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return outcome;
  char buf[512];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) outcome.output += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) outcome.exit_code = WEXITSTATUS(status);
  return outcome;
}

// Small binary workload files: a good one, a truncated one and one that is
// not a stream file at all.
class CliFiles {
 public:
  CliFiles() : dir_(testing::TempDir() + "/iawj_cli_test") {
    std::filesystem::create_directories(dir_);
    std::vector<Tuple> tuples(1000);
    for (uint32_t i = 0; i < tuples.size(); ++i) tuples[i] = {i, i % 97};
    const Stream stream = MakeStream(tuples);
    EXPECT_TRUE(io::SaveStream(stream, good()).ok());
    EXPECT_TRUE(io::SaveStream(stream, truncated()).ok());
    std::filesystem::resize_file(
        truncated(), std::filesystem::file_size(truncated()) / 2);
    std::FILE* f = std::fopen(garbage().c_str(), "w");
    std::fputs("this is not a stream file\n", f);
    std::fclose(f);
  }
  ~CliFiles() { std::filesystem::remove_all(dir_); }

  std::string good() const { return dir_ + "/good.bin"; }
  std::string truncated() const { return dir_ + "/truncated.bin"; }
  std::string garbage() const { return dir_ + "/garbage.bin"; }
  std::string missing() const { return dir_ + "/missing.bin"; }
  std::string dir() const { return dir_; }

 private:
  std::string dir_;
};

struct ExitCase {
  const char* name;
  std::string command;
  int expected;
};

TEST(CliExitCodes, EveryErrorPathExitsWithItsDocumentedCode) {
  const CliFiles files;
  const std::string cli = IAWJ_CLI_BIN;
  const std::string serve = IAWJ_SERVE_BIN;
  const std::string small = " --rate=10 --window=100 --threads=2";
  const std::string file_workload = " --workload=file --threads=2";
  const ExitCase cases[] = {
      {"help", cli + " --help", 0},
      {"clean run", cli + " --algo=npj" + small, 0},
      {"unknown flag", cli + " --no-such-flag=1" + small, 1},
      {"unknown algo", cli + " --algo=nope" + small, 1},
      {"unknown kernels", cli + " --kernels=nope" + small, 1},
      {"file workload without paths", cli + file_workload, 1},
      {"invalid spec: jb group does not divide threads",
       cli + " --algo=shj-jb --threads=3 --rate=10 --window=100", 2},
      {"invalid spec: zero window", cli + " --algo=npj --window=0", 2},
      {"invalid spec over --connect",
       cli + " --connect=" + files.dir() +
           "/no.sock --algo=pmj-jb --threads=3 --rate=10 --window=100",
       2},
      {"window span overflows timestamps",
       cli + " --window=100000000 --windows=100", 2},
      {"not a stream file",
       cli + file_workload + " --r=" + files.garbage() +
           " --s=" + files.good(),
       2},
      {"missing --r file",
       cli + file_workload + " --r=" + files.missing() +
           " --s=" + files.good(),
       3},
      {"memory budget breached",
       "IAWJ_MEM_BUDGET=64k " + cli + " --algo=npj" + small, 4},
      {"truncated workload file",
       cli + file_workload + " --r=" + files.truncated() +
           " --s=" + files.good(),
       7},
      {"serve: unknown flag", serve + " --no-such-flag=1", 1},
      {"serve: no socket", serve, 2},
      {"serve: unbindable socket",
       serve + " --socket=" + files.dir() + "/no/such/dir/iawj.sock", 3},
  };
  for (const ExitCase& c : cases) {
    SCOPED_TRACE(c.name);
    const Outcome outcome = RunCommand(c.command);
    EXPECT_EQ(outcome.exit_code, c.expected)
        << c.command << "\n" << outcome.output;
  }
}

// Splits the single data row of iawj_cli's metrics table into its cells.
std::vector<std::string> DataRow(const std::string& output,
                                 const std::string& algorithm) {
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream cells(line);
    std::vector<std::string> row;
    for (std::string cell; cells >> cell;) row.push_back(cell);
    if (row.size() == 9 && row[1] == algorithm) return row;
  }
  return {};
}

TEST(CliWindows, MicroRunsEveryWindowAndReportsRealMetrics) {
  const Outcome outcome = RunCommand(
      std::string(IAWJ_CLI_BIN) +
      " --algo=npj --rate=100 --window=200 --windows=5 --threads=2");
  ASSERT_EQ(outcome.exit_code, 0) << outcome.output;
  // workload algo windows inputs matches tput_per_ms p95_latency_ms t50_ms
  // peak_mb
  const std::vector<std::string> row = DataRow(outcome.output, "NPJ");
  ASSERT_EQ(row.size(), 9u) << outcome.output;
  EXPECT_EQ(row[2], "5") << outcome.output;
  // 100 tuples/ms per stream over five 200 ms windows.
  EXPECT_EQ(row[3], "200000") << outcome.output;
  EXPECT_GT(std::stod(row[4]), 0) << outcome.output;
  EXPECT_GT(std::stod(row[5]), 0) << outcome.output;
  EXPECT_GT(std::stod(row[6]), 0) << outcome.output;
  EXPECT_GT(std::stod(row[7]), 0) << outcome.output;
  EXPECT_GT(std::stod(row[8]), 0) << outcome.output;
}

#endif  // IAWJ_CLI_BIN && IAWJ_SERVE_BIN

}  // namespace
}  // namespace iawj
