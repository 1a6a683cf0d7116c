/**
 * @file
 * Unit tests for the socket plumbing: TCP and Unix listener/connect
 * pairs (TCP sockets carry TCP_NODELAY on both ends) and the
 * LineChannel framing, including its line-length limit.
 */

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>

#include "support/net.hh"

namespace hilp {
namespace net {
namespace {

int
noDelay(const Socket &socket)
{
    int value = -1;
    socklen_t size = sizeof(value);
    EXPECT_EQ(::getsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY,
                           &value, &size),
              0);
    return value;
}

/** A connected pair of LineChannels over a socketpair. */
struct ChannelPair
{
    ChannelPair()
    {
        int fds[2] = {-1, -1};
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        writer = LineChannel(Socket(fds[0]));
        reader = LineChannel(Socket(fds[1]));
    }

    LineChannel writer{Socket()};
    LineChannel reader{Socket()};
};

TEST(Net, TcpSocketsCarryNoDelayOnBothEnds)
{
    Listener listener;
    std::string error;
    ASSERT_TRUE(listener.open("tcp:127.0.0.1:0", &error)) << error;
    ASSERT_GT(listener.port(), 0);
    EXPECT_EQ(listener.address(),
              "tcp:127.0.0.1:" + std::to_string(listener.port()));

    Socket client = connectTo(listener.address(), &error);
    ASSERT_TRUE(client.valid()) << error;
    Socket server = listener.accept();
    ASSERT_TRUE(server.valid());
    EXPECT_EQ(noDelay(client), 1);
    EXPECT_EQ(noDelay(server), 1);

    LineChannel to_server(std::move(client));
    LineChannel from_client(std::move(server));
    ASSERT_TRUE(to_server.writeLine("{\"op\":\"stats\"}"));
    std::string line;
    ASSERT_TRUE(from_client.readLine(&line));
    EXPECT_EQ(line, "{\"op\":\"stats\"}");
}

TEST(Net, UnixPairConnectsAndExchangesLines)
{
    const std::string path = ::testing::TempDir() + "hilp_test_net_" +
        std::to_string(::getpid()) + ".sock";
    Listener listener;
    std::string error;
    ASSERT_TRUE(listener.open("unix:" + path, &error)) << error;
    EXPECT_EQ(listener.address(), "unix:" + path);
    EXPECT_EQ(listener.port(), 0);

    LineChannel client(connectTo("unix:" + path, &error));
    ASSERT_TRUE(client.valid()) << error;
    LineChannel server(listener.accept());
    ASSERT_TRUE(server.valid());

    std::string line;
    ASSERT_TRUE(client.writeLine("ping"));
    ASSERT_TRUE(server.readLine(&line));
    EXPECT_EQ(line, "ping");
    ASSERT_TRUE(server.writeLine("pong"));
    ASSERT_TRUE(client.readLine(&line));
    EXPECT_EQ(line, "pong");

    listener.close();
    EXPECT_NE(::access(path.c_str(), F_OK), 0); // Path unlinked.
}

TEST(LineChannel, LinesOfOneReadComeOutOneByOne)
{
    ChannelPair pair;
    const std::string burst = "first\nsecond\n\nthird";
    ASSERT_TRUE(pair.writer.socket().writeAll(burst.data(),
                                              burst.size()));
    pair.writer.socket().close();

    std::string line;
    ASSERT_TRUE(pair.reader.readLine(&line));
    EXPECT_EQ(line, "first");
    ASSERT_TRUE(pair.reader.readLine(&line));
    EXPECT_EQ(line, "second");
    ASSERT_TRUE(pair.reader.readLine(&line));
    EXPECT_EQ(line, "");
    // The unterminated fragment arrives once, at EOF.
    ASSERT_TRUE(pair.reader.readLine(&line));
    EXPECT_EQ(line, "third");
    EXPECT_FALSE(pair.reader.readLine(&line));
    EXPECT_FALSE(pair.reader.readLine(&line));
    EXPECT_FALSE(pair.reader.tooLong());
    EXPECT_FALSE(pair.reader.timedOut());
}

TEST(LineChannel, LineAtTheLimitIsReadAndOneByteMoreIsRejected)
{
    ChannelPair pair;
    const std::string longest(kMaxLineBytes, 'x');
    std::thread writer([&pair, &longest] {
        pair.writer.writeLine(longest);
        pair.writer.writeLine("after");
        // One byte over the limit, never terminated.
        pair.writer.socket().writeAll(longest.data(), longest.size());
        pair.writer.socket().writeAll("y", 1);
    });
    // EXPECT, not ASSERT: the writer must be joined on every path.
    std::string line;
    EXPECT_TRUE(pair.reader.readLine(&line));
    EXPECT_EQ(line.size(), kMaxLineBytes);
    EXPECT_TRUE(pair.reader.readLine(&line));
    EXPECT_EQ(line, "after");
    EXPECT_FALSE(pair.reader.readLine(&line));
    EXPECT_TRUE(pair.reader.tooLong());
    EXPECT_FALSE(pair.reader.timedOut());
    writer.join();
}

} // anonymous namespace
} // namespace net
} // namespace hilp
