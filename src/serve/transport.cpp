#include "serve/transport.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"

namespace mlp::serve {

namespace {

[[noreturn]] void serve_error(const std::string& what, const Endpoint& ep,
                              const std::string& reason) {
  throw SimError("serve", what + "(" + endpoint_name(ep) + "): " + reason);
}

/// Resolve host:port to AF_INET addresses (numeric fast path via
/// AI_NUMERICHOST falls out of getaddrinfo automatically).
addrinfo* resolve(const Endpoint& ep, bool listening) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  if (listening) hints.ai_flags = AI_PASSIVE;
  addrinfo* result = nullptr;
  const std::string port = std::to_string(ep.port);
  const int rc = ::getaddrinfo(ep.host.c_str(), port.c_str(), &hints, &result);
  if (rc != 0) serve_error("resolve", ep, ::gai_strerror(rc));
  return result;
}

void fill_unix_addr(const Endpoint& ep, sockaddr_un* addr) {
  addr->sun_family = AF_UNIX;
  MLP_SIM_CHECK(ep.path.size() < sizeof(addr->sun_path), "serve",
                "socket path too long for AF_UNIX: " + ep.path);
  std::strncpy(addr->sun_path, ep.path.c_str(), sizeof(addr->sun_path) - 1);
}

/// Non-blocking connect bounded by `timeout_ms`: start the handshake with
/// O_NONBLOCK, poll for writability, then read SO_ERROR for the verdict.
/// Returns 0 on success, a positive errno on failure, -1 on timeout. The fd
/// is restored to blocking mode on success.
int connect_with_deadline(int fd, const sockaddr* addr, socklen_t len,
                          i64 timeout_ms) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, addr, len);
  if (rc != 0 && errno != EINPROGRESS) return errno;
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    for (;;) {
      const int ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
      if (ready < 0 && errno == EINTR) continue;
      if (ready < 0) return errno;
      if (ready == 0) return -1;  // handshake deadline
      break;
    }
    int soerr = 0;
    socklen_t soerr_len = sizeof(soerr);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &soerr_len);
    if (soerr != 0) return soerr;
  }
  ::fcntl(fd, F_SETFL, flags);
  return 0;
}

/// One "key=value" chaos assignment into the config; throws on unknowns.
void apply_chaos_kv(const std::string& item, ChaosConfig* cfg) {
  const std::size_t eq = item.find('=');
  MLP_SIM_CHECK(eq != std::string::npos, "serve",
                "chaos spec item \"" + item + "\" is not key=value");
  const std::string key = item.substr(0, eq);
  const std::string value = item.substr(eq + 1);
  const auto rate = [&] {
    char* end = nullptr;
    const double r = std::strtod(value.c_str(), &end);
    MLP_SIM_CHECK(end != value.c_str() && *end == '\0' && r >= 0.0 &&
                      r <= 1.0,
                  "serve",
                  "chaos rate \"" + key + "\" must be in [0, 1], got: " +
                      value);
    return r;
  };
  const auto integer = [&] {
    // Digits only: strtoull alone takes " 7", "+7" and a wrapped "-1".
    char* end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
    MLP_SIM_CHECK(std::isdigit(static_cast<unsigned char>(value[0])) &&
                      *end == '\0' && errno != ERANGE,
                  "serve",
                  "chaos \"" + key + "\" must be an integer, got: " + value);
    return static_cast<u64>(n);
  };
  if (key == "drop") {
    cfg->drop_rate = rate();
  } else if (key == "delay") {
    cfg->delay_rate = rate();
  } else if (key == "truncate") {
    cfg->truncate_rate = rate();
  } else if (key == "close") {
    cfg->close_rate = rate();
  } else if (key == "delay-ms") {
    cfg->delay_ms = integer();
    MLP_SIM_CHECK(cfg->delay_ms <= kMaxChaosDelayMs, "serve",
                  "chaos \"delay-ms\" must be at most " +
                      std::to_string(kMaxChaosDelayMs) + ", got: " + value);
  } else if (key == "seed") {
    cfg->seed = integer();
  } else {
    throw SimError("serve", "unknown chaos key \"" + key +
                                "\" (drop, delay, truncate, close, "
                                "delay-ms, seed)");
  }
}

}  // namespace

Endpoint parse_endpoint(const std::string& address) {
  Endpoint ep;
  const std::size_t colon = address.rfind(':');
  if (colon != std::string::npos && colon > 0 &&
      address.find('/') == std::string::npos) {
    const std::string port_text = address.substr(colon + 1);
    bool numeric = !port_text.empty();
    for (const char c : port_text) numeric = numeric && c >= '0' && c <= '9';
    if (numeric) {
      const unsigned long port = std::strtoul(port_text.c_str(), nullptr, 10);
      MLP_SIM_CHECK(port <= 65535, "serve",
                    "TCP port out of range in address: " + address);
      ep.kind = Endpoint::Kind::kTcp;
      ep.host = address.substr(0, colon);
      ep.port = static_cast<u16>(port);
      return ep;
    }
  }
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = address;
  return ep;
}

std::string endpoint_name(const Endpoint& endpoint) {
  if (endpoint.kind == Endpoint::Kind::kUnix) return endpoint.path;
  return endpoint.host + ":" + std::to_string(endpoint.port);
}

int listen_endpoint(const Endpoint& endpoint, u16* bound_port) {
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr{};
    fill_unix_addr(endpoint, &addr);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) serve_error("socket", endpoint, std::strerror(errno));
    // A stale socket file from a crashed daemon would make bind fail; remove
    // it (a LIVE daemon on the path would still conflict at connect time).
    ::unlink(endpoint.path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const std::string reason = std::strerror(errno);
      ::close(fd);
      serve_error("bind", endpoint, reason);
    }
    // SOMAXCONN backlog: a load spike of N simultaneous connects must queue,
    // not overflow — an overflowed accept queue surfaces to the peer as a
    // reset mid-exchange, which no client retry policy can distinguish from
    // a genuine crash.
    if (::listen(fd, SOMAXCONN) != 0) {
      const std::string reason = std::strerror(errno);
      ::close(fd);
      serve_error("listen", endpoint, reason);
    }
    if (bound_port != nullptr) *bound_port = 0;
    return fd;
  }

  addrinfo* addrs = resolve(endpoint, /*listening=*/true);
  int fd = -1;
  std::string reason = "no usable address";
  for (addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      reason = std::strerror(errno);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, SOMAXCONN) == 0) {
      break;
    }
    reason = std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(addrs);
  if (fd < 0) serve_error("bind", endpoint, reason);
  if (bound_port != nullptr) {
    sockaddr_in local{};
    socklen_t len = sizeof(local);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &len) == 0) {
      *bound_port = ntohs(local.sin_port);
    }
  }
  return fd;
}

int connect_endpoint(const Endpoint& endpoint, i64 timeout_ms) {
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    // AF_UNIX connect resolves synchronously in the kernel (refused or
    // accepted into the backlog immediately), so no deadline machinery.
    sockaddr_un addr{};
    fill_unix_addr(endpoint, &addr);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) serve_error("socket", endpoint, std::strerror(errno));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const std::string reason = std::strerror(errno);
      ::close(fd);
      serve_error("connect", endpoint,
                  reason + " (is mlpserved running?)");
    }
    return fd;
  }

  addrinfo* addrs = resolve(endpoint, /*listening=*/false);
  int fd = -1;
  bool timed_out = false;
  std::string reason = "no usable address";
  for (addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      reason = std::strerror(errno);
      continue;
    }
    if (timeout_ms > 0) {
      const int rc =
          connect_with_deadline(fd, ai->ai_addr, ai->ai_addrlen, timeout_ms);
      if (rc == 0) break;
      timed_out = rc < 0;
      reason = rc < 0 ? "handshake timed out after " +
                            std::to_string(timeout_ms) + " ms"
                      : std::strerror(rc);
    } else {
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
      reason = std::strerror(errno);
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(addrs);
  if (fd < 0) {
    if (timed_out) {
      throw SimError("timeout", "connect(" + endpoint_name(endpoint) + "): " +
                                    reason);
    }
    serve_error("connect", endpoint, reason + " (is mlpserved running?)");
  }
  set_tcp_nodelay(fd);
  return fd;
}

void set_tcp_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

ChaosConfig parse_chaos(const std::string& spec) {
  ChaosConfig cfg;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    if (end > start) apply_chaos_kv(spec.substr(start, end - start), &cfg);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return cfg;
}

}  // namespace mlp::serve
