#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "minimpi/runtime.hpp"
#include "solver/poisson.hpp"
#include "solver/refinement.hpp"

namespace lossyfft {
namespace {

using minimpi::Comm;
using minimpi::run_ranks;

// Analytic test problem on [0, 2*pi)^3: u = sin(x) sin(2y) cos(z) is an
// eigenfunction of -lap with eigenvalue 1 + 4 + 1 = 6, so
// (-lap + c) u = (6 + c) u and the solver must reconstruct u from
// f = (6 + c) u exactly (up to FFT roundoff) — no discretization error,
// trigonometric modes are exact on the grid.
double u_exact(double x, double y, double z) {
  return std::sin(x) * std::sin(2 * y) * std::cos(z);
}

std::vector<std::complex<double>> sample(const Box3& b, int n, double scale) {
  std::vector<std::complex<double>> v(static_cast<std::size_t>(b.count()));
  const double h = 2.0 * M_PI / n;
  std::size_t i = 0;
  for (int z = b.lo[2]; z < b.hi(2); ++z)
    for (int y = b.lo[1]; y < b.hi(1); ++y)
      for (int x = b.lo[0]; x < b.hi(0); ++x) {
        v[i++] = scale * u_exact(x * h, y * h, z * h);
      }
  return v;
}

TEST(Poisson, RecoversEigenfunctionExactly) {
  run_ranks(4, [](Comm& comm) {
    const int n = 16;
    const double c = 1.0;
    PoissonOptions o;
    o.shift = c;
    PoissonSolver solver(comm, {n, n, n}, /*e_tol=*/1.0, o);
    const auto f = sample(solver.box(), n, 6.0 + c);
    std::vector<std::complex<double>> u(solver.local_count());
    solver.solve(f, u);
    const auto want = sample(solver.box(), n, 1.0);
    EXPECT_LT(rel_l2_error<double>(comm, u, want), 1e-13);
  });
}

TEST(Poisson, BatchSolveMatchesIndependentSolves) {
  run_ranks(4, [](Comm& comm) {
    const int n = 16;
    const int kFields = 3;
    PoissonOptions o;
    o.shift = 1.0;
    o.fft.batch_fields = kFields;  // One exchange epoch per field chunk.
    PoissonSolver solver(comm, {n, n, n}, /*e_tol=*/1.0, o);
    PoissonSolver ref(comm, {n, n, n}, /*e_tol=*/1.0,
                      PoissonOptions{.shift = 1.0, .fft = {}});

    const std::size_t lc = solver.local_count();
    std::vector<std::complex<double>> f(lc * kFields), u(lc * kFields),
        want(lc);
    for (int b = 0; b < kFields; ++b) {
      const auto fb = sample(solver.box(), n, 7.0 + b);
      std::copy(fb.begin(), fb.end(),
                f.begin() + static_cast<std::ptrdiff_t>(lc) * b);
    }
    solver.solve_batch(f, u, kFields);
    for (int b = 0; b < kFields; ++b) {
      const auto off = static_cast<std::size_t>(b) * lc;
      ref.solve(std::span<const std::complex<double>>(f).subspan(off, lc),
                want);
      for (std::size_t i = 0; i < lc; ++i) {
        ASSERT_EQ(u[off + i], want[i]) << "field " << b << " element " << i;
      }
    }
  });
}

TEST(Poisson, ResidualIsSmallForExactSolve) {
  run_ranks(2, [](Comm& comm) {
    const int n = 12;
    PoissonSolver solver(comm, {n, n, n}, 1.0);
    const auto f = sample(solver.box(), n, 7.0);
    std::vector<std::complex<double>> u(solver.local_count());
    solver.solve(f, u);
    EXPECT_LT(solver.residual(f, u), 1e-12);
  });
}

TEST(Poisson, LossyToleranceDegradesGracefully) {
  // Algorithm 2 with e_tol: the solution error tracks the requested
  // communication tolerance, not machine epsilon.
  run_ranks(4, [](Comm& comm) {
    const int n = 16;
    PoissonOptions o;
    o.shift = 1.0;
    o.fft.backend = ExchangeBackend::kOsc;
    double prev = -1.0;
    for (const double e_tol : {1e-3, 1e-6, 1e-12}) {
      PoissonSolver solver(comm, {n, n, n}, e_tol, o);
      const auto f = sample(solver.box(), n, 7.0);
      std::vector<std::complex<double>> u(solver.local_count());
      solver.solve(f, u);
      const auto want = sample(solver.box(), n, 1.0);
      const double err = rel_l2_error<double>(comm, u, want);
      EXPECT_LT(err, 100 * e_tol) << e_tol;
      if (prev >= 0.0) {
        EXPECT_LT(err, prev * 10);  // Tighter never worse(ish).
      }
      prev = err;
    }
  });
}

TEST(Poisson, PureZeroShiftProjectsOutMean) {
  run_ranks(2, [](Comm& comm) {
    const int n = 8;
    PoissonOptions o;
    o.shift = 0.0;
    PoissonSolver solver(comm, {n, n, n}, 1.0, o);
    // f = 6 * u + constant: the constant (k=0) component must vanish.
    auto f = sample(solver.box(), n, 6.0);
    for (auto& v : f) v += 5.0;
    std::vector<std::complex<double>> u(solver.local_count());
    solver.solve(f, u);
    const auto want = sample(solver.box(), n, 1.0);
    EXPECT_LT(rel_l2_error<double>(comm, u, want), 1e-12);
  });
}

TEST(Poisson, SolutionSatisfiesOperatorSpectrally) {
  run_ranks(4, [](Comm& comm) {
    const int n = 12;
    PoissonOptions o;
    o.shift = 2.5;
    PoissonSolver solver(comm, {n, n, n}, 1.0, o);
    // Generic smooth periodic rhs.
    const double h = 2.0 * M_PI / n;
    const Box3& b = solver.box();
    std::vector<std::complex<double>> f(solver.local_count());
    std::size_t i = 0;
    for (int z = b.lo[2]; z < b.hi(2); ++z)
      for (int y = b.lo[1]; y < b.hi(1); ++y)
        for (int x = b.lo[0]; x < b.hi(0); ++x) {
          f[i++] = std::exp(std::sin(x * h)) * std::cos(2 * y * h) +
                   0.3 * std::sin(3 * z * h);
        }
    std::vector<std::complex<double>> u(solver.local_count());
    solver.solve(f, u);
    EXPECT_LT(solver.residual(f, u), 1e-11);
  });
}

TEST(Poisson, ApplyIsInverseOfSolve) {
  run_ranks(2, [](Comm& comm) {
    const int n = 12;
    PoissonSolver solver(comm, {n, n, n}, 1.0);
    const auto f = sample(solver.box(), n, 7.0);
    std::vector<std::complex<double>> u(solver.local_count()),
        back(solver.local_count());
    solver.solve(f, u);
    solver.apply(u, back);
    EXPECT_LT(rel_l2_error<double>(comm, back, f), 1e-12);
  });
}

TEST(Refinement, RecoversFullPrecisionFromLossyInnerSolves) {
  // The paper's mixed-precision-refinement motivation: an inner solver
  // whose communication is compressed to ~1e-4 still drives the residual
  // to ~1e-12 in a few sweeps.
  run_ranks(4, [](Comm& comm) {
    const int n = 16;
    RefinementOptions o;
    o.inner_e_tol = 1e-4;
    o.target_residual = 1e-12;
    o.shift = 1.0;
    o.fft.backend = ExchangeBackend::kOsc;
    RefinedPoissonSolver solver(comm, {n, n, n}, o);

    const auto f = sample(solver.box(), n, 7.0);
    std::vector<std::complex<double>> u(solver.local_count());
    const auto result = solver.solve(f, u);

    EXPECT_TRUE(result.converged);
    EXPECT_LE(result.final_residual(), 1e-12);
    EXPECT_LE(result.iterations, 8);
    // And the solution really is u* to refined accuracy.
    const auto want = sample(solver.box(), n, 1.0);
    EXPECT_LT(rel_l2_error<double>(comm, u, want), 1e-10);
    // The inner solver genuinely compressed its wire.
    EXPECT_GT(solver.inner_stats().compression_ratio(), 1.9);
  });
}

TEST(Refinement, ResidualContractsByRoughlyInnerTolerancePerSweep) {
  run_ranks(2, [](Comm& comm) {
    const int n = 12;
    RefinementOptions o;
    o.inner_e_tol = 1e-3;
    o.target_residual = 1e-13;
    RefinedPoissonSolver solver(comm, {n, n, n}, o);
    const auto f = sample(solver.box(), n, 7.0);
    std::vector<std::complex<double>> u(solver.local_count());
    const auto result = solver.solve(f, u);
    ASSERT_GE(result.residual_history.size(), 3u);
    // First sweep: residual drops from 1 to O(inner_e_tol).
    EXPECT_LT(result.residual_history[1], 50 * o.inner_e_tol);
    // Second sweep contracts by at least another factor ~100.
    EXPECT_LT(result.residual_history[2],
              result.residual_history[1] / 100);
  });
}

TEST(Refinement, LooserInnerToleranceNeedsMoreSweeps) {
  run_ranks(2, [](Comm& comm) {
    const int n = 12;
    const auto iterations_for = [&](double e_tol) {
      RefinementOptions o;
      o.inner_e_tol = e_tol;
      o.target_residual = 1e-11;
      RefinedPoissonSolver solver(comm, {n, n, n}, o);
      const auto f = sample(solver.box(), n, 7.0);
      std::vector<std::complex<double>> u(solver.local_count());
      const auto r = solver.solve(f, u);
      EXPECT_TRUE(r.converged) << e_tol;
      return r.iterations;
    };
    EXPECT_GE(iterations_for(1e-2), iterations_for(1e-8));
  });
}

TEST(Refinement, ZeroRhsConvergesImmediately) {
  run_ranks(1, [](Comm& comm) {
    RefinedPoissonSolver solver(comm, {8, 8, 8}, RefinementOptions{});
    std::vector<std::complex<double>> f(solver.local_count()),
        u(solver.local_count());
    const auto r = solver.solve(f, u);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.iterations, 0);
  });
}

TEST(Poisson, RejectsNegativeShift) {
  run_ranks(1, [](Comm& comm) {
    PoissonOptions o;
    o.shift = -1.0;
    EXPECT_THROW(PoissonSolver(comm, {8, 8, 8}, 1.0, o), Error);
  });
}

TEST(Poisson, RejectsWrongSpanSizes) {
  run_ranks(1, [](Comm& comm) {
    PoissonSolver solver(comm, {8, 8, 8}, 1.0);
    std::vector<std::complex<double>> bad(3), u(solver.local_count());
    EXPECT_THROW(solver.solve(bad, u), Error);
  });
}

}  // namespace
}  // namespace lossyfft
