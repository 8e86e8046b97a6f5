#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

namespace {

double timespec_s(const timespec& ts) {
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t pattern_word(std::uint64_t seed, std::size_t index) {
  return splitmix(seed ^ (0x632be59bd9b4e019ULL * (index + 1)));
}

}  // namespace

double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return timespec_s(ts);
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void release_free_memory() { malloc_trim(0); }

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return splitmix(a ^ splitmix(b + 0x2545f4914f6cdd1dULL));
}

std::uint64_t mix_double(std::uint64_t digest, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return mix(digest, bits);
}

void fill_pattern(char* dst, std::size_t n, std::uint64_t seed) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t word = pattern_word(seed, i / 8);
    std::memcpy(dst + i, &word, 8);
  }
  if (i < n) {
    const std::uint64_t word = pattern_word(seed, i / 8);
    std::memcpy(dst + i, &word, n - i);
  }
}

ps::Bytes make_pattern(std::size_t n, std::uint64_t seed) {
  ps::Bytes out(n, '\0');
  fill_pattern(out.data(), n, seed);
  return out;
}

bool matches_pattern(ps::BytesView data, std::uint64_t seed) {
  const std::size_t n = data.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t word = pattern_word(seed, i / 8);
    if (std::memcmp(data.data() + i, &word, 8) != 0) return false;
  }
  if (i < n) {
    const std::uint64_t word = pattern_word(seed, i / 8);
    if (std::memcmp(data.data() + i, &word, n - i) != 0) return false;
  }
  return true;
}

std::uint64_t fingerprint(ps::BytesView data) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ data.size();
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data.data() + i, 8);
    h = (h ^ word) * 0x100000001b3ULL;
    h ^= h >> 32;
  }
  for (; i < data.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(data[i])) * 0x100000001b3ULL;
  }
  return splitmix(h);
}

std::vector<std::size_t> stratified_log_uniform(ps::Rng& rng, std::size_t n,
                                                double lo, double hi) {
  std::vector<std::size_t> sizes(n);
  const double log_lo = std::log(lo);
  const double log_span = std::log(hi) - log_lo;
  for (std::size_t k = 0; k < n; ++k) {
    const double u = (static_cast<double>(k) + rng.uniform()) /
                     static_cast<double>(n);
    sizes[k] = static_cast<std::size_t>(
        std::llround(std::exp(log_lo + u * log_span)));
  }
  std::shuffle(sizes.begin(), sizes.end(), rng.engine());
  return sizes;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

void PhaseClock::begin() {
  wall0_ = wall_now_s();
  cpu0_ = process_cpu_s();
  excluded_wall_s_ = 0.0;
  excluded_cpu_s_ = 0.0;
}

void PhaseClock::end() {
  wall_s_ = wall_now_s() - wall0_ - excluded_wall_s_;
  cpu_s_ = process_cpu_s() - cpu0_ - excluded_cpu_s_;
}

PhaseClock::BenchSide::BenchSide(PhaseClock& clock)
    : clock_(clock), wall0_(wall_now_s()), cpu0_(thread_cpu_s()) {}

PhaseClock::BenchSide::~BenchSide() {
  clock_.excluded_wall_s_ += wall_now_s() - wall0_;
  clock_.excluded_cpu_s_ += thread_cpu_s() - cpu0_;
}

}  // namespace perfbench
