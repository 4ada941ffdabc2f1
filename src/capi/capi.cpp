#include "capi/lossyfft.h"

#include <complex>
#include <cstdio>
#include <exception>
#include <functional>

#include "common/cpu_dispatch.hpp"
#include "dfft/fft3d.hpp"
#include "minimpi/runtime.hpp"

// Opaque handle definitions: thin wrappers over the C++ objects.
struct lossyfft_comm {
  lossyfft::minimpi::Comm* comm;
};

struct lossyfft_plan {
  lossyfft::Fft3d<double> fft;
};

namespace {

// C callers cannot catch C++ exceptions; report and convert to codes.
int guarded(const char* where, const std::function<void()>& body) {
  try {
    body();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lossyfft C API: %s failed: %s\n", where, e.what());
    return 1;
  }
}

int transform(lossyfft_plan* plan, const double* in, double* out,
              bool forward) {
  if (plan == nullptr || in == nullptr || out == nullptr) return 1;
  return guarded(forward ? "forward" : "backward", [&] {
    const std::size_t count = plan->fft.local_count();
    const std::span<const std::complex<double>> in_view(
        reinterpret_cast<const std::complex<double>*>(in), count);
    const std::span<std::complex<double>> out_view(
        reinterpret_cast<std::complex<double>*>(out), count);
    if (forward) {
      plan->fft.forward(in_view, out_view);
    } else {
      plan->fft.backward(in_view, out_view);
    }
  });
}

}  // namespace

extern "C" {

int lossyfft_run_ranks(int nranks, void (*fn)(lossyfft_comm*, void*),
                       void* user) {
  if (fn == nullptr || nranks <= 0) return 1;
  return guarded("run_ranks", [&] {
    lossyfft::minimpi::run_ranks(nranks, [&](lossyfft::minimpi::Comm& comm) {
      lossyfft_comm handle{&comm};
      fn(&handle, user);
    });
  });
}

int lossyfft_comm_rank(const lossyfft_comm* comm) {
  return comm != nullptr ? comm->comm->rank() : -1;
}

int lossyfft_comm_size(const lossyfft_comm* comm) {
  return comm != nullptr ? comm->comm->size() : -1;
}

lossyfft_plan* lossyfft_plan_c2c(lossyfft_comm* comm, int nx, int ny, int nz,
                                 double e_tol, int backend) {
  return lossyfft_plan_c2c_ex(comm, nx, ny, nz, e_tol, backend, 0);
}

lossyfft_plan* lossyfft_plan_c2c_ex(lossyfft_comm* comm, int nx, int ny,
                                    int nz, double e_tol, int backend,
                                    int parity) {
  if (comm == nullptr || parity < 0) return nullptr;
  lossyfft::Fft3dOptions options;
  options.exchange_parity = parity;
  switch (backend) {
    case LOSSYFFT_BACKEND_PAIRWISE:
      options.backend = lossyfft::ExchangeBackend::kPairwise;
      break;
    case LOSSYFFT_BACKEND_OSC:
      options.backend = lossyfft::ExchangeBackend::kOsc;
      break;
    case LOSSYFFT_BACKEND_AUTO:
      // kOsc keeps the exchange planned even without a codec so the tuner
      // has a plan to configure; the decided path overrides the backend.
      options.backend = lossyfft::ExchangeBackend::kOsc;
      options.osc_sync = lossyfft::osc::OscSync::kAuto;
      break;
    default:
      return nullptr;
  }
  try {
    const std::array<int, 3> n{nx, ny, nz};
    if (e_tol < 1.0) {
      return new lossyfft_plan{
          lossyfft::Fft3d<double>(*comm->comm, n, e_tol, options)};
    }
    return new lossyfft_plan{lossyfft::Fft3d<double>(*comm->comm, n, options)};
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lossyfft C API: plan_c2c failed: %s\n", e.what());
    return nullptr;
  }
}

void lossyfft_plan_destroy(lossyfft_plan* plan) { delete plan; }

long long lossyfft_local_count(const lossyfft_plan* plan) {
  return plan != nullptr ? static_cast<long long>(plan->fft.local_count())
                         : -1;
}

void lossyfft_inbox(const lossyfft_plan* plan, int lo[3], int size[3]) {
  if (plan == nullptr) return;
  const lossyfft::Box3& b = plan->fft.inbox();
  for (int d = 0; d < 3; ++d) {
    lo[d] = b.lo[static_cast<std::size_t>(d)];
    size[d] = b.size[static_cast<std::size_t>(d)];
  }
}

int lossyfft_forward(lossyfft_plan* plan, const double* in, double* out) {
  return transform(plan, in, out, /*forward=*/true);
}

int lossyfft_backward(lossyfft_plan* plan, const double* in, double* out) {
  return transform(plan, in, out, /*forward=*/false);
}

double lossyfft_compression_ratio(const lossyfft_plan* plan) {
  return plan != nullptr ? plan->fft.stats().compression_ratio() : 0.0;
}

const char* lossyfft_simd_level(void) {
  return lossyfft::simd_level_name();
}

const char* lossyfft_simd_requested(void) {
  return lossyfft::simd_requested_name();
}

}  // extern "C"
