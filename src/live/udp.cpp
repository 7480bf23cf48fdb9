#include "live/udp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

namespace dg::live {
namespace {

sockaddr_in loopbackAddress(std::uint16_t port) {
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return address;
}

}  // namespace

UdpSocket::UdpSocket(std::uint16_t port) : buffer_(64 * 1024) {
  fd_ = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0)
    throw std::system_error(errno, std::generic_category(), "socket");

  sockaddr_in address = loopbackAddress(port);
  if (bind(fd_, reinterpret_cast<const sockaddr*>(&address),
           sizeof(address)) != 0) {
    const int savedErrno = errno;
    close(fd_);
    fd_ = -1;
    throw std::system_error(savedErrno, std::generic_category(),
                            "bind 127.0.0.1:" + std::to_string(port));
  }

  sockaddr_in bound{};
  socklen_t boundLength = sizeof(bound);
  if (getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &boundLength) !=
      0) {
    const int savedErrno = errno;
    close(fd_);
    fd_ = -1;
    throw std::system_error(savedErrno, std::generic_category(),
                            "getsockname");
  }
  localPort_ = ntohs(bound.sin_port);
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) close(fd_);
}

bool UdpSocket::sendTo(std::uint16_t port,
                       std::span<const std::byte> datagram) {
  const sockaddr_in address = loopbackAddress(port);
  const ssize_t sent =
      sendto(fd_, datagram.data(), datagram.size(), 0,
             reinterpret_cast<const sockaddr*>(&address), sizeof(address));
  return sent == static_cast<ssize_t>(datagram.size());
}

bool UdpSocket::receive(std::span<const std::byte>& datagram) {
  const ssize_t n = recv(fd_, buffer_.data(), buffer_.size(), 0);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
      return false;
    throw std::system_error(errno, std::generic_category(), "recv");
  }
  datagram = {buffer_.data(), static_cast<std::size_t>(n)};
  return true;
}

}  // namespace dg::live
