#include "codegen/stubcache.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "codegen/cgen.hpp"
#include "planir/planir.hpp"
#include "runtime/threaded.hpp"
#include "support/error.hpp"

namespace mbird::codegen {

namespace {

// Bump when the generated stub ABI or calling convention changes: the
// version participates in the digest, so stale on-disk objects are simply
// never looked up again.
constexpr const char* kAbiTag = "mbird-stub-abi-1\n";
constexpr const char* kEntry = "mb_stub";

uint64_t fnv1a(const std::string& s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string digest_hex(const std::string& src) {
  std::string keyed = kAbiTag + src;
  uint64_t a = fnv1a(keyed, 1469598103934665603ULL);
  uint64_t b = fnv1a(keyed, a ^ 0x9e3779b97f4a7c15ULL);
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  return buf;
}

std::string shell_quote(const std::string& s) {
  std::string q = "'";
  for (char c : s) {
    if (c == '\'') {
      q += "'\\''";
    } else {
      q += c;
    }
  }
  q += "'";
  return q;
}

/// Generated source for the program, or "" when the generator rejects it
/// (LoadOpaque / LoadEnum / ranges beyond 64 bits — the engine owns
/// those).
std::string source_of(const planir::Program& prog) {
  if (prog.mode != planir::Program::Mode::NativeMarshal) return {};
  try {
    return generate_native_marshaler(prog, kEntry);
  } catch (const MbError&) {
    return {};
  }
}

}  // namespace

CompiledStub::~CompiledStub() {
  if (handle_ != nullptr) dlclose(handle_);
}

StubCache& StubCache::process() {
  static StubCache cache;
  return cache;
}

void StubCache::set_dir(std::string dir) {
  std::lock_guard<std::mutex> lock(mu_);
  dir_ = std::move(dir);
}

std::string StubCache::dir() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!dir_.empty()) return dir_;
  return (std::filesystem::temp_directory_path() / "mbird-stubs").string();
}

std::string StubCache::key_of(const planir::Program& prog) {
  std::string src = source_of(prog);
  if (src.empty()) return {};
  return digest_hex(src);
}

StubCache::Stats StubCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::shared_ptr<const CompiledStub> StubCache::get(
    const planir::Program& prog) {
  std::string src = source_of(prog);
  if (src.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.failures;
    return nullptr;
  }
  // No LoadOpaque (the generator rejected it), so the output size is
  // static; it sizes the caller's buffer.
  auto size = runtime::static_native_wire_size(prog);
  if (!size) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.failures;
    return nullptr;
  }
  std::string key = digest_hex(src);

  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = stubs_.find(key); it != stubs_.end()) {
    ++stats_.hits;
    return it->second;  // may be a cached failure (nullptr)
  }

  namespace fs = std::filesystem;
  fs::path base = dir_.empty()
                      ? fs::temp_directory_path() / "mbird-stubs"
                      : fs::path(dir_);
  std::error_code ec;
  fs::create_directories(base, ec);
  fs::path so = base / ("mb_" + key + ".so");

  auto fail = [&]() -> std::shared_ptr<const CompiledStub> {
    ++stats_.failures;
    stubs_.emplace(key, nullptr);
    return nullptr;
  };

  if (!fs::exists(so, ec)) {
    // Compile into pid-suffixed temps, then publish with an atomic rename:
    // two processes racing on the same key each produce a valid object and
    // the loser's rename just replaces it with an identical one.
    std::string tag = "." + std::to_string(::getpid());
    fs::path tmp_c = base / ("mb_" + key + tag + ".c");
    fs::path tmp_so = base / ("mb_" + key + tag + ".so");
    {
      std::ofstream out(tmp_c, std::ios::trunc);
      out << src;
      if (!out) {
        fs::remove(tmp_c, ec);
        return fail();
      }
    }
    ++stats_.compiles;
    std::string cmd = "cc -O2 -fPIC -shared -o " +
                      shell_quote(tmp_so.string()) + " " +
                      shell_quote(tmp_c.string()) + " 2>/dev/null";
    int rc = std::system(cmd.c_str());
    if (rc != 0) {
      fs::remove(tmp_c, ec);
      fs::remove(tmp_so, ec);
      return fail();
    }
    fs::rename(tmp_so, so, ec);
    if (ec) {
      fs::remove(tmp_c, ec);
      fs::remove(tmp_so, ec);
      return fail();
    }
    // Keep the source next to the object for debugging.
    fs::rename(tmp_c, base / ("mb_" + key + ".c"), ec);
  } else {
    ++stats_.reloads;
  }

  void* handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) return fail();
  void* sym = dlsym(handle, kEntry);
  if (sym == nullptr) {
    dlclose(handle);
    return fail();
  }
  auto stub = std::shared_ptr<const CompiledStub>(new CompiledStub(
      handle, reinterpret_cast<CompiledStub::Fn>(sym), *size, so.string()));
  stubs_.emplace(key, stub);
  return stub;
}

}  // namespace mbird::codegen
