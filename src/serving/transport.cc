#include "serving/transport.h"

#include <cerrno>
#include <cstring>

#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/logging.h"
#include "support/strings.h"

namespace qb::serving {

namespace {

std::string
errnoMessage(const std::string &what)
{
    return what + ": " + std::strerror(errno);
}

sockaddr_un
unixAddress(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty())
        fatal("empty socket path");
    if (path.size() >= sizeof(addr.sun_path))
        fatal(format("socket path too long (%zu bytes, max %zu): ",
                     path.size(), sizeof(addr.sun_path) - 1) +
              path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

/**
 * A stream socket on the first address of "host:port" (a bracketed
 * IPv6 literal such as "[::1]:7711" allowed; an empty host is
 * @p empty_host) for which @p use succeeds.
 * @throws FatalError "<what> '<host_port>': <last error>" otherwise.
 */
int
openFirst(const std::string &host_port, const char *empty_host,
          int flags, const char *what,
          bool (*use)(int fd, const addrinfo &ai))
{
    const std::size_t colon = host_port.rfind(':');
    if (colon == std::string::npos || colon + 1 >= host_port.size())
        fatal("TCP address must be host:port, got '" + host_port + "'");
    std::string host = host_port.substr(0, colon);
    const std::string port = host_port.substr(colon + 1);
    if (host.size() >= 2 && host.front() == '[' && host.back() == ']')
        host = host.substr(1, host.size() - 2);
    if (host.empty())
        host = empty_host;
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = flags;
    addrinfo *results = nullptr;
    if (const int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints,
                                     &results))
        fatal("cannot resolve '" + host_port + "': " + ::gai_strerror(rc));
    std::string error = "no usable address";
    int fd = -1;
    for (addrinfo *ai = results; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                      ai->ai_protocol);
        if (fd >= 0 && use(fd, *ai))
            break;
        error = std::strerror(errno);
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(results);
    if (fd < 0)
        fatal(std::string(what) + " '" + host_port + "': " + error);
    return fd;
}

class UnixListener final : public Listener
{
  public:
    explicit UnixListener(const std::string &path) : path_(path)
    {
        sockaddr_un addr = unixAddress(path);

        fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd_ < 0)
            fatal(errnoMessage("server: cannot create socket"));

        if (::bind(fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) < 0) {
            if (errno == EADDRINUSE) {
                // Something exists at the path.  Only a SOCKET may
                // be taken over (a typo'd path to a regular file
                // must never be deleted), and only a DEAD one: probe
                // it - if something accepts, refuse to hijack.
                struct stat st{};
                if (::lstat(path.c_str(), &st) != 0 ||
                    !S_ISSOCK(st.st_mode)) {
                    ::close(fd_);
                    fd_ = -1;
                    fatal("server: '" + path +
                          "' exists and is not a socket");
                }
                const int probe =
                    ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
                const bool live =
                    probe >= 0 &&
                    ::connect(probe,
                              reinterpret_cast<sockaddr *>(&addr),
                              sizeof(addr)) == 0;
                if (probe >= 0)
                    ::close(probe);
                if (live) {
                    ::close(fd_);
                    fd_ = -1;
                    fatal("server: socket '" + path +
                          "' is already served by another process");
                }
                ::unlink(path.c_str());
                if (::bind(fd_,
                           reinterpret_cast<sockaddr *>(&addr),
                           sizeof(addr)) == 0) {
                    bound_ = true;
                }
            }
            if (!bound_) {
                const std::string msg = errnoMessage(
                    "server: cannot bind '" + path + "'");
                ::close(fd_);
                fd_ = -1;
                fatal(msg);
            }
        } else {
            bound_ = true;
        }

        if (::listen(fd_, 64) < 0) {
            const std::string msg = errnoMessage(
                "server: cannot listen on '" + path + "'");
            close();
            fatal(msg);
        }
    }

    ~UnixListener() override { close(); }

    int fd() const override { return fd_; }

    int
    acceptConnection() override
    {
        return ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    }

    std::string boundAddress() const override { return path_; }

    void
    close() override
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
        if (bound_) {
            ::unlink(path_.c_str());
            bound_ = false;
        }
    }

  private:
    std::string path_;
    int fd_ = -1;
    bool bound_ = false; ///< we own (and must unlink) the path
};

class TcpListener final : public Listener
{
  public:
    explicit TcpListener(const std::string &host_port)
    {
        fd_ = openFirst(host_port, "0.0.0.0", AI_PASSIVE,
                        "server: cannot listen on",
                        [](int fd, const addrinfo &ai) {
                            const int one = 1;
                            ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR,
                                         &one, sizeof(one));
                            return ::bind(fd, ai.ai_addr,
                                          ai.ai_addrlen) == 0 &&
                                   ::listen(fd, 64) == 0;
                        });

        // Report the ACTUAL endpoint (port 0 asked the kernel).
        sockaddr_storage bound{};
        socklen_t len = sizeof(bound);
        char host_buf[NI_MAXHOST] = "?";
        char port_buf[NI_MAXSERV] = "?";
        if (::getsockname(fd_, reinterpret_cast<sockaddr *>(&bound),
                          &len) == 0) {
            ::getnameinfo(reinterpret_cast<sockaddr *>(&bound), len,
                          host_buf, sizeof(host_buf), port_buf,
                          sizeof(port_buf),
                          NI_NUMERICHOST | NI_NUMERICSERV);
        }
        address_ = std::string(host_buf) + ':' + port_buf;
    }

    ~TcpListener() override { close(); }

    int fd() const override { return fd_; }

    int
    acceptConnection() override
    {
        return ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    }

    std::string boundAddress() const override { return address_; }

    void
    close() override
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

  private:
    int fd_ = -1;
    std::string address_;
};

} // namespace

std::unique_ptr<Listener>
makeUnixListener(const std::string &path)
{
    return std::make_unique<UnixListener>(path);
}

std::unique_ptr<Listener>
makeTcpListener(const std::string &host_port)
{
    return std::make_unique<TcpListener>(host_port);
}

int
connectUnix(const std::string &path)
{
    sockaddr_un addr = unixAddress(path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                             sizeof(addr)) == 0)
        return fd;
    const std::string msg = errnoMessage("cannot connect to '" + path + "'");
    if (fd >= 0)
        ::close(fd);
    fatal(msg);
}

int
connectTcp(const std::string &host_port)
{
    return openFirst(host_port, "127.0.0.1", 0, "cannot connect to",
                     [](int fd, const addrinfo &ai) {
                         return ::connect(fd, ai.ai_addr,
                                          ai.ai_addrlen) == 0;
                     });
}

} // namespace qb::serving
