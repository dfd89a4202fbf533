/**
 * @file
 * Listener transports of the qborrow daemon.
 *
 * The wire protocol (server/protocol.h) is line-delimited JSON over
 * any byte stream; the server should not care WHICH kind of stream.
 * This header is that seam: a Listener is one bound, listening
 * endpoint the accept loop polls, and the two factories cover the
 * daemon's transports -
 *
 *   - makeUnixListener(): a Unix domain socket at a filesystem path,
 *     with the stale-socket takeover semantics the daemon has always
 *     had (a DEAD socket file is replaced, a LIVE one or a non-socket
 *     is a FatalError);
 *
 *   - makeTcpListener(): a TCP socket bound to "host:port" for
 *     remote clients (port 0 binds an ephemeral port; boundAddress()
 *     reports the actual one), SO_REUSEADDR set so quick daemon
 *     restarts do not trip over TIME_WAIT.
 *
 * Accepted fds are plain stream sockets either way, so connections,
 * readers, auth and graceful drain are transport-agnostic above this
 * line.
 */

#ifndef QB_SERVING_TRANSPORT_H
#define QB_SERVING_TRANSPORT_H

#include <memory>
#include <string>

namespace qb::serving {

/** One bound, listening endpoint. */
class Listener
{
  public:
    virtual ~Listener() = default;

    /** The listening fd (poll it for POLLIN). */
    virtual int fd() const = 0;

    /** Accept one pending connection (CLOEXEC); -1 on failure. */
    virtual int acceptConnection() = 0;

    /** Human-readable bound endpoint, e.g. "/tmp/qb.sock" or
     *  "127.0.0.1:7711" (with the ACTUAL port when 0 was asked). */
    virtual std::string boundAddress() const = 0;

    /** Stop listening and release the endpoint (idempotent; also run
     *  by the destructor). */
    virtual void close() = 0;
};

/**
 * Bind and listen on Unix domain socket @p path.  A stale socket file
 * (nothing accepting on it) is replaced; a live one, a non-socket at
 * the path, or an unwritable/overlong path is a FatalError.  close()
 * unlinks the path iff this listener bound it.
 */
std::unique_ptr<Listener> makeUnixListener(const std::string &path);

/**
 * Bind and listen on TCP @p host_port ("host:port"; host may be an
 * IPv4/IPv6 literal or a name, port 0 asks the kernel for an
 * ephemeral port).  @throws FatalError when the address does not
 * resolve or cannot be bound.
 */
std::unique_ptr<Listener>
makeTcpListener(const std::string &host_port);

/** @name The client side: a connected stream socket to a daemon's
 *  Unix socket @p path, or to TCP "host:port" (an empty host is the
 *  loopback).  @throws FatalError naming the address on failure. @{ */
int connectUnix(const std::string &path);
int connectTcp(const std::string &host_port);
/** @} */

} // namespace qb::serving

#endif // QB_SERVING_TRANSPORT_H
