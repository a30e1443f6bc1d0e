#include "daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdlib>
#include <stdexcept>

namespace perfbench {

namespace {

// Live daemon pids, readable from a signal handler.
constexpr int kMaxLive = 8;
std::atomic<pid_t> g_live[kMaxLive];

void track(pid_t pid) {
  for (auto& slot : g_live) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void untrack(pid_t pid) {
  for (auto& slot : g_live) {
    pid_t cur = pid;
    slot.compare_exchange_strong(cur, 0);
  }
}

void reap_all(int sig) {
  for (auto& slot : g_live) {
    const pid_t pid = slot.exchange(0);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
  ::_exit(128 + sig);
}

int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void install_reaper() {
  struct sigaction sa {};
  sa.sa_handler = reap_all;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGINT, SIGTERM, SIGHUP}) ::sigaction(sig, &sa, nullptr);
  // A dead client socket must surface as an error, not kill the run.
  ::signal(SIGPIPE, SIG_IGN);
}

Daemon::Daemon(const std::string& mbird, const std::string& dir,
               const std::vector<std::string>& args, int ready_timeout_ms) {
  char exe[PATH_MAX];
  if (::realpath(mbird.c_str(), exe) == nullptr) {
    throw std::runtime_error("cannot resolve " + mbird);
  }
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");

  std::vector<std::string> argv_s{exe};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  // Block the reaper's signals across fork so a signal cannot arrive
  // between the child existing and its pid being tracked.
  sigset_t block, old;
  sigemptyset(&block);
  for (int sig : {SIGINT, SIGTERM, SIGHUP}) sigaddset(&block, sig);
  ::sigprocmask(SIG_BLOCK, &block, &old);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::signal(SIGPIPE, SIG_DFL);
    for (int sig : {SIGINT, SIGTERM, SIGHUP}) ::signal(sig, SIG_DFL);
    ::sigprocmask(SIG_SETMASK, &old, nullptr);
    if (::chdir(dir.c_str()) != 0) ::_exit(126);
    ::dup2(pipefd[1], STDOUT_FILENO);
    ::execv(exe, argv.data());
    ::_exit(127);
  }
  if (pid > 0) track(pid);
  ::sigprocmask(SIG_SETMASK, &old, nullptr);
  ::close(pipefd[1]);
  if (pid < 0) {
    ::close(pipefd[0]);
    throw std::runtime_error("fork failed");
  }
  pid_ = pid;
  out_fd_ = pipefd[0];

  // The ready line is the dial signal: wait on the pipe, never sleep.
  const int64_t deadline = now_ms() + ready_timeout_ms;
  std::string buf;
  while (buf.find('\n') == std::string::npos) {
    pollfd p{out_fd_, POLLIN, 0};
    const int64_t left = deadline - now_ms();
    if (left <= 0 || ::poll(&p, 1, static_cast<int>(left)) <= 0) {
      stop(1000);
      throw std::runtime_error("daemon did not report ready");
    }
    char chunk[512];
    const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
    if (n <= 0) {
      stop(1000);
      throw std::runtime_error("daemon exited before ready");
    }
    buf.append(chunk, static_cast<size_t>(n));
  }
  ready_ = buf.substr(0, buf.find('\n'));
}

Daemon::~Daemon() {
  stop(5000);
}

bool Daemon::alive() {
  if (pid_ <= 0) return false;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) == pid_) {
    untrack(pid_);
    pid_ = -1;
    return false;
  }
  return true;
}

int Daemon::stop(int timeout_ms) {
  int status = -1;
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    const int64_t deadline = now_ms() + timeout_ms;
    bool reaped = false;
    // The daemon closes its stdout when it exits; drain the pipe (its
    // shutdown summary) while waiting so it never blocks on a full pipe.
    while (!reaped) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        reaped = true;
        break;
      }
      const int64_t left = deadline - now_ms();
      if (left <= 0) break;
      pollfd p{out_fd_, POLLIN, 0};
      if (out_fd_ >= 0 && ::poll(&p, 1, static_cast<int>(std::min<int64_t>(left, 100))) > 0) {
        char chunk[4096];
        if (::read(out_fd_, chunk, sizeof chunk) <= 0) {
          ::close(out_fd_);
          out_fd_ = -1;
        }
      } else if (out_fd_ < 0) {
        ::poll(nullptr, 0, 10);
      }
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    untrack(pid_);
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
  return status;
}

}  // namespace perfbench
