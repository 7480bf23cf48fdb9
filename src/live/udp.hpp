// Nonblocking UDP socket on the loopback interface.
//
// The live overlay runs its fleets on 127.0.0.1, so an endpoint is just
// a port; the socket binds (port 0 = kernel-assigned, read back via
// localPort()) and sends datagrams to peer ports. Receive is drain-style
// for use from an EventLoop readable callback.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dg::live {

class UdpSocket {
 public:
  /// Binds to 127.0.0.1:port (0 = ephemeral). Throws std::system_error.
  explicit UdpSocket(std::uint16_t port);
  ~UdpSocket();
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  int fd() const { return fd_; }
  std::uint16_t localPort() const { return localPort_; }

  /// Sends one datagram to 127.0.0.1:port. Returns false when the kernel
  /// refused it (e.g. full socket buffer) -- the overlay treats that as
  /// a network drop.
  bool sendTo(std::uint16_t port, std::span<const std::byte> datagram);

  /// Reads every queued datagram, invoking `sink` per datagram, until
  /// the socket would block. Returns the number of datagrams read. The
  /// span is valid only during the call.
  template <typename Sink>
  std::size_t drain(Sink&& sink) {
    std::size_t count = 0;
    for (std::span<const std::byte> datagram; receive(datagram); ++count)
      sink(datagram);
    return count;
  }

 private:
  /// Reads one datagram into the receive buffer; false when the socket
  /// would block.
  bool receive(std::span<const std::byte>& datagram);

  int fd_ = -1;
  std::uint16_t localPort_ = 0;
  std::vector<std::byte> buffer_;
};

}  // namespace dg::live
