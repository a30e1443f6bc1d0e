#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "transport/socket.hpp"

namespace mbird::transport {
namespace {

std::vector<uint8_t> msg(std::initializer_list<uint8_t> b) { return {b}; }

std::pair<int, int> raw_pair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {fds[0], fds[1]};
}

TEST(SocketPeer, RoundtripThroughStateMachine) {
  auto [fa, fb] = raw_pair();
  SocketPeer a(fa), b(fb);
  a.send(msg({1, 2, 3}), {});
  for (int i = 0; i < 1000 && b.inbound_frames() == 0; ++i) b.on_readable();
  ASSERT_EQ(b.inbound_frames(), 1u);
  EXPECT_EQ(b.poll(), msg({1, 2, 3}));
  EXPECT_FALSE(b.poll().has_value());
  EXPECT_FALSE(a.closed());
  EXPECT_FALSE(b.closed());
}

TEST(SocketPeer, FrontPeeksWithoutConsuming) {
  auto [fa, fb] = raw_pair();
  SocketPeer a(fa), b(fb);
  EXPECT_EQ(b.front(), nullptr);
  a.send(msg({7, 8}), {});
  for (int i = 0; i < 1000 && b.inbound_frames() == 0; ++i) b.on_readable();
  ASSERT_NE(b.front(), nullptr);
  EXPECT_EQ(*b.front(), msg({7, 8}));
  EXPECT_EQ(b.inbound_frames(), 1u);  // peek did not consume
  EXPECT_EQ(b.poll(), msg({7, 8}));
}

TEST(SocketPeer, ShortWriteBuffersUntilWritable) {
  // Flood one direction far past the kernel buffer without draining: send()
  // must keep the overflow in userspace (wants_write) and on_writable()
  // must flush it as the reader catches up, byte-for-byte.
  auto [fa, fb] = raw_pair();
  SocketPeer a(fa), b(fb);
  std::vector<uint8_t> frame(65536);
  for (size_t i = 0; i < frame.size(); ++i) frame[i] = static_cast<uint8_t>(i);
  constexpr size_t kFrames = 64;  // ~4 MB total
  for (size_t i = 0; i < kFrames; ++i) {
    frame[0] = static_cast<uint8_t>(i);
    a.send(frame, {});
  }
  EXPECT_TRUE(a.wants_write());
  EXPECT_GT(a.held_bytes(), 0u);
  EXPECT_FALSE(a.closed());
  size_t got = 0;
  for (int spin = 0; spin < 200000 && got < kFrames; ++spin) {
    b.on_readable();
    while (auto m = b.poll()) {
      EXPECT_EQ((*m)[0], static_cast<uint8_t>(got));
      EXPECT_EQ(m->size(), frame.size());
      ++got;
    }
    a.on_writable();
  }
  EXPECT_EQ(got, kFrames);
  EXPECT_FALSE(a.wants_write());
  EXPECT_EQ(a.held_bytes(), 0u);
}

TEST(SocketPeer, TwoRunFramesArriveWholeUnderTinySendBuffer) {
  // Frames of 1 B to 1 MiB, each split into head and body at every class
  // of boundary (all head, all body, one byte either side, the middle),
  // sent back to back into a shrunk kernel send buffer: the sendmsg path
  // must keep every byte the kernel refuses, in order behind what was
  // already waiting, and the receiver must cut out identical frames.
  auto [fa, fb] = raw_pair();
  int small = 4096;
  ASSERT_EQ(::setsockopt(fa, SOL_SOCKET, SO_SNDBUF, &small, sizeof small), 0);
  SocketPeer a(fa), b(fb);
  std::vector<std::vector<uint8_t>> sent;
  for (size_t size : {size_t{1}, size_t{2}, size_t{3}, size_t{64}, size_t{4095},
                      size_t{65536 + 54}, size_t{1} << 20}) {
    for (size_t split : {size_t{0}, size_t{1}, size / 2, size - 1, size}) {
      std::vector<uint8_t> frame(size);
      for (size_t i = 0; i < size; ++i) {
        frame[i] = static_cast<uint8_t>(i * 131 + sent.size() * 7 + (i >> 8));
      }
      a.send({frame.data(), split}, {frame.data() + split, size - split});
      sent.push_back(std::move(frame));
    }
  }
  EXPECT_GT(a.held_bytes(), 0u);
  EXPECT_TRUE(a.wants_write());
  size_t got = 0;
  for (int spin = 0; spin < 1000000 && got < sent.size(); ++spin) {
    b.on_readable();
    while (auto m = b.poll()) {
      ASSERT_LT(got, sent.size());
      ASSERT_TRUE(*m == sent[got]) << "frame " << got << " of size "
                                   << sent[got].size();
      ++got;
    }
    a.on_writable();
  }
  EXPECT_EQ(got, sent.size());
  EXPECT_EQ(a.held_bytes(), 0u);
  EXPECT_FALSE(a.wants_write());
  EXPECT_FALSE(a.closed());
}

TEST(SocketPeer, HangupLatchesClosedWithoutSigpipe) {
  // Writing into a closed peer must not kill the process with SIGPIPE and
  // must not throw from the state machine: closed() latches with a reason
  // and later sends become silent drops (the reliability layer sees loss).
  auto [fa, fb] = raw_pair();
  SocketPeer a(fa);
  ::close(fb);
  for (int i = 0; i < 10 && !a.closed(); ++i) a.send(msg({1}), {});
  EXPECT_TRUE(a.closed());
  EXPECT_FALSE(a.close_reason().empty());
  a.send(msg({2}), {});  // still a no-op, not a crash
  EXPECT_FALSE(a.wants_write());
}

TEST(SocketPeer, EofReportsDeadAfterDraining) {
  auto [fa, fb] = raw_pair();
  SocketPeer a(fa);
  {
    SocketPeer b(fb);
    b.send(msg({9}), {});
    EXPECT_FALSE(b.wants_write());  // flushed before the fd closes
  }
  // The buffered frame is still deliverable; only after draining does
  // on_readable() report the peer dead. Orderly EOF is not a fault, so the
  // closed() error latch stays clear.
  for (int i = 0; i < 1000 && a.inbound_frames() == 0; ++i) a.on_readable();
  EXPECT_EQ(a.poll(), msg({9}));
  EXPECT_FALSE(a.on_readable());
  EXPECT_FALSE(a.closed());
}

TEST(PolledSocketLink, ClosedPeerThrowsTypedError) {
  auto [fa, fb] = raw_pair();
  auto link = polled_socket_link(fa);
  ::close(fb);
  // The first send may latch the hangup; a subsequent one must surface it
  // as the typed LinkClosedError (not SIGPIPE, not a generic throw).
  EXPECT_THROW(
      {
        for (int i = 0; i < 10; ++i) link->send(msg({1}), {});
      },
      LinkClosedError);
}

TEST(ListenSocket, UnixDialAndAccept) {
  std::string path =
      "/tmp/mbird_socket_test_" + std::to_string(::getpid()) + ".sock";
  ListenSocket ls("unix:" + path);
  EXPECT_EQ(ls.address(), "unix:" + path);
  EXPECT_EQ(ls.accept_fd(), -1);  // nothing pending yet
  int cfd = dial_fd(ls.address());
  int sfd = -1;
  for (int i = 0; i < 10000 && sfd < 0; ++i) sfd = ls.accept_fd();
  ASSERT_GE(sfd, 0);
  SocketPeer client(cfd), server(sfd);
  client.send(msg({5, 6}), {});
  for (int i = 0; i < 10000 && server.inbound_frames() == 0; ++i) {
    server.on_readable();
  }
  EXPECT_EQ(server.poll(), msg({5, 6}));
  server.send(msg({9}), {});
  for (int i = 0; i < 10000 && client.inbound_frames() == 0; ++i) {
    client.on_readable();
  }
  EXPECT_EQ(client.poll(), msg({9}));
}

TEST(ListenSocket, TcpEphemeralPortResolves) {
  ListenSocket ls("tcp:127.0.0.1:0");
  EXPECT_NE(ls.address(), "tcp:127.0.0.1:0");  // real port filled in
  EXPECT_EQ(ls.address().rfind("tcp:127.0.0.1:", 0), 0u);
  auto client = dial(ls.address());
  int sfd = -1;
  for (int i = 0; i < 10000 && sfd < 0; ++i) sfd = ls.accept_fd();
  ASSERT_GE(sfd, 0);
  auto server = polled_socket_link(sfd);
  client->send(msg({1, 2, 3}), {});
  std::optional<std::vector<uint8_t>> got;
  for (int i = 0; i < 10000 && !got; ++i) got = server->poll();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, msg({1, 2, 3}));
}

TEST(ListenSocket, DialToNothingThrows) {
  EXPECT_THROW(
      {
        int fd = dial_fd("unix:/tmp/mbird_socket_test_missing_" +
                         std::to_string(::getpid()) + ".sock");
        ::close(fd);
      },
      TransportError);
}

}  // namespace
}  // namespace mbird::transport
