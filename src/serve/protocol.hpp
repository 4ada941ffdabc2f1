// serve layer 0: the lossyfftd wire protocol.
//
// lossyfftd speaks a length-prefixed binary framing over a SOCK_STREAM
// Unix socket. Every frame is
//
//   u32 payload_len | u32 type | payload[payload_len]
//
// in host byte order (the socket never crosses a host boundary). Client
// requests use types 1..99, daemon replies 101..199. Payload layouts are
// defined where the messages are produced: session open/submit bodies in
// session.hpp (encode_config / decode_config), reply bodies in
// daemon.cpp / client.cpp, both sides built on the bounds-checked
// WireWriter / WireReader below.
//
// Robustness contract (serve_test pins it down): a malformed or truncated
// frame must never take the daemon down — an oversize length yields
// FrameRead::kOversize, a connection that dies mid-frame yields kEof, and
// a payload shorter than its advertised fields makes WireReader throw
// lossyfft::Error, which the daemon maps to an ErrorReply on that one
// connection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace lossyfft::serve {

/// Bumped on any incompatible frame-layout change; OpenSession carries it
/// and the daemon rejects mismatches before touching the rest of the body.
/// Version 2: the SessionConfig backend byte follows ExchangeBackend, whose
/// kOsc moved from 2 to 1 when the linear backend was retired.
constexpr std::uint32_t kProtocolVersion = 2;

/// Default per-frame payload ceiling: a 256^3 complex<double> field plus
/// headers fits; a hostile 4 GiB length prefix does not.
constexpr std::uint64_t kDefaultMaxFrameBytes = (1ull << 28) + 4096;

enum class MsgType : std::uint32_t {
  // Client -> daemon.
  kOpenSession = 1,      // config body (session.hpp encode_config)
  kSubmitTransform = 2,  // u64 job id | u8 direction | field bytes
  kProgress = 3,         // u64 job id
  kStats = 4,            // empty
  kCloseSession = 5,     // empty
  // Daemon -> client.
  kOpenAck = 101,        // u8 ok | ok: u64 session id, u32 ranks | else: str
  kSubmitAck = 102,      // u64 job id | u8 ok | !ok: str reason
  kTransformDone = 103,  // u64 job id | u8 status | str error | field bytes
  kProgressReply = 104,  // u64 job id | u8 state
  kStatsReply = 105,     // str text table
  kCloseAck = 106,       // empty
  kError = 107,          // str reason
};

struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::byte> payload;
};

/// Append-only payload builder. Scalars are memcpy'd in host order.
class WireWriter {
 public:
  void u8(std::uint8_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  /// u32 length + bytes.
  void str(const std::string& s);
  void bytes(std::span<const std::byte> b) { raw(b.data(), b.size()); }
  const std::vector<std::byte>& payload() const { return buf_; }

 private:
  void raw(const void* p, std::size_t n);
  std::vector<std::byte> buf_;
};

/// Bounds-checked payload cursor; every getter throws lossyfft::Error on
/// underrun so a short frame can never read past its buffer.
class WireReader {
 public:
  explicit WireReader(std::span<const std::byte> buf) : buf_(buf) {}
  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int32_t i32() { return get<std::int32_t>(); }
  double f64() { return get<double>(); }
  std::string str();
  std::span<const std::byte> raw(std::size_t n);
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  template <typename T>
  T get() {
    T v;
    const std::span<const std::byte> b = raw(sizeof(T));
    __builtin_memcpy(&v, b.data(), sizeof(T));
    return v;
  }
  std::span<const std::byte> buf_;
  std::size_t pos_ = 0;
};

/// read_frame outcome; protocol errors inside an intact frame surface as
/// WireReader exceptions at decode time instead.
enum class FrameRead {
  kFrame,     // `out` holds a complete frame
  kEof,       // peer closed (possibly mid-frame: treated as a dead peer)
  kOversize,  // advertised payload length exceeds the ceiling
};

/// Blocking frame I/O over a connected stream socket fd. write_frame
/// returns false when the peer is gone (EPIPE and friends); it never
/// raises SIGPIPE.
FrameRead read_frame(int fd, Frame& out, std::uint64_t max_payload_bytes);
bool write_frame(int fd, MsgType type, std::span<const std::byte> payload);

/// EINTR-safe full-buffer reads/writes (exposed for tests that speak raw
/// bytes to the daemon).
bool read_exact(int fd, void* buf, std::size_t n);
bool write_all(int fd, const void* buf, std::size_t n);

}  // namespace lossyfft::serve
