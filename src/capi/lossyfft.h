/* C API for the lossyfft distributed 3-D FFT (the equivalent of heFFTe's
 * C bindings). All functions return 0 on success and a nonzero error code
 * on failure (invalid arguments, box mismatch, ...), except the opaque-
 * handle constructors which return NULL on failure.
 *
 * Ranks are in-process threads: lossyfft_run_ranks launches the world and
 * calls the user function once per rank with that rank's communicator.
 * Plans are valid only inside the rank function that created them, and
 * must be destroyed before it returns.
 *
 * Complex data is passed as interleaved re/im doubles (2*count values).
 */
#ifndef LOSSYFFT_CAPI_H_
#define LOSSYFFT_CAPI_H_

#ifdef __cplusplus
extern "C" {
#endif

typedef struct lossyfft_comm lossyfft_comm;
typedef struct lossyfft_plan lossyfft_plan;

/* Exchange backends (ExchangeBackend). LOSSYFFT_BACKEND_AUTO hands the
 * choice of transport path, sync mode, and worker fan-out to the
 * model-guided autotuner (src/tuner/); decisions persist across processes
 * in the cache file named by the LOSSYFFT_TUNE_CACHE environment
 * variable. Results are identical to any fixed backend. Value 1 (the
 * retired linear backend) is rejected like any unknown value. */
enum {
  LOSSYFFT_BACKEND_PAIRWISE = 0,
  LOSSYFFT_BACKEND_OSC = 2,
  LOSSYFFT_BACKEND_AUTO = 3
};

/* Run fn(comm, user) on nranks thread ranks; blocks until all return.
 * Returns 0 on success, 1 if any rank threw. */
int lossyfft_run_ranks(int nranks, void (*fn)(lossyfft_comm*, void*),
                       void* user);

int lossyfft_comm_rank(const lossyfft_comm* comm);
int lossyfft_comm_size(const lossyfft_comm* comm);

/* Plan a c2c transform of the (nx, ny, nz) grid in the default brick
 * decomposition. e_tol < 1.0 selects a lossy wire codec meeting that
 * relative tolerance; e_tol >= 1.0 keeps communication exact. Collective.
 * Returns NULL on invalid arguments. */
lossyfft_plan* lossyfft_plan_c2c(lossyfft_comm* comm, int nx, int ny, int nz,
                                 double e_tol, int backend);

/* Extended planner: like lossyfft_plan_c2c plus the coded-exchange parity
 * budget. parity = m > 0 ships m erasure-coded parity frames per exchange
 * round so a receiver reconstructs up to m missing / late / corrupt
 * arrivals instead of stalling; 0 keeps the uncoded wire (and under
 * LOSSYFFT_BACKEND_AUTO lets the autotuner pick m from its straggler
 * model). Fault-free coded results are bit-identical to uncoded. Only
 * planned backends (codec or OSC/AUTO) carry parity; parity < 0 or beyond
 * the transport budget (8) fails. */
lossyfft_plan* lossyfft_plan_c2c_ex(lossyfft_comm* comm, int nx, int ny,
                                    int nz, double e_tol, int backend,
                                    int parity);

void lossyfft_plan_destroy(lossyfft_plan* plan);

/* Number of complex elements in this rank's brick. */
long long lossyfft_local_count(const lossyfft_plan* plan);

/* This rank's brick: global lower corner and extents. */
void lossyfft_inbox(const lossyfft_plan* plan, int lo[3], int size[3]);

/* Forward / scaled inverse transform of the local brick. Buffers hold
 * 2*local_count interleaved doubles and may alias. Collective. */
int lossyfft_forward(lossyfft_plan* plan, const double* in, double* out);
int lossyfft_backward(lossyfft_plan* plan, const double* in, double* out);

/* payload bytes / wire bytes over this plan's exchanges so far. */
double lossyfft_compression_ratio(const lossyfft_plan* plan);

/* Active codec kernel dispatch level ("scalar", "avx2", or "avx512"):
 * the best level the binary + CPU + OS support, clamped by the
 * LOSSYFFT_SIMD environment variable ("auto", "avx512", "avx2",
 * "scalar") read once at first use. An override naming an unsupported
 * level warns once on stderr and falls back to the best supported tier.
 * Static string; never NULL. Compressed streams are bit-identical across
 * levels. */
const char* lossyfft_simd_level(void);

/* Level LOSSYFFT_SIMD requested: "auto" when unset/"auto"/unrecognized,
 * otherwise the requested name even when unsupported (compare with
 * lossyfft_simd_level() to detect a fallback). Static string; never
 * NULL. */
const char* lossyfft_simd_requested(void);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* LOSSYFFT_CAPI_H_ */
