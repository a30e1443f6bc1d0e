// A `mbird serve --listen` daemon owned by one run: spawned with its own
// socket path, read once ready, and reaped on every exit path — normal
// return, a failed check, an exception, or a signal.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

class Daemon {
 public:
  /// Spawn `mbird args...` with `dir` as its working directory and wait for
  /// the ready line on its stdout. Throws std::runtime_error when the
  /// daemon exits or stays silent for `ready_timeout_ms`.
  Daemon(const std::string& mbird, const std::string& dir,
         const std::vector<std::string>& args, int ready_timeout_ms = 60000);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] const std::string& ready_line() const { return ready_; }
  /// False once the process has exited (it is reaped then).
  [[nodiscard]] bool alive();
  /// SIGTERM, then SIGKILL after `timeout_ms`; reaps the process. Returns
  /// its exit status as waitpid reports it (-1 when already reaped).
  int stop(int timeout_ms = 30000);

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string ready_;
};

/// Kill and reap every live daemon on SIGINT, SIGTERM and SIGHUP, then exit
/// with 128 + the signal number.
void install_reaper();

}  // namespace perfbench
