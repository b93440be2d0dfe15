#include "common/tmpfile.hh"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <vector>

#include <dirent.h>
#include <signal.h>
#include <sys/types.h>
#include <unistd.h>

namespace rc
{

namespace
{

constexpr const char *kSuffix = ".tmp";
constexpr std::size_t kSuffixLen = 4;

bool
allDigits(const std::string &s)
{
    if (s.empty())
        return false;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return false;
    }
    return true;
}

bool
isTmpName(const std::string &name)
{
    return name.size() > kSuffixLen &&
           name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) == 0;
}

} // namespace

std::string
uniqueTmpPath(const std::string &path)
{
    static std::atomic<unsigned long long> seq{0};
    return path + "." + std::to_string(::getpid()) + "." +
           std::to_string(seq.fetch_add(1, std::memory_order_relaxed)) +
           kSuffix;
}

bool
tmpWriterAlive(const std::string &name)
{
    if (!isTmpName(name))
        return false;
    // Walk the dot components before ".tmp" from the right; the last
    // all-digit one reached is the pid (".<pid>.<seq>.tmp" or the
    // older ".<pid>.tmp").
    std::string stem = name.substr(0, name.size() - kSuffixLen);
    std::string pid;
    for (;;) {
        const std::size_t dot = stem.rfind('.');
        if (dot == std::string::npos)
            break;
        const std::string part = stem.substr(dot + 1);
        if (!allDigits(part))
            break;
        pid = part;
        stem.resize(dot);
    }
    if (pid.empty() || pid.size() > 9)
        return false;
    const long p = std::strtol(pid.c_str(), nullptr, 10);
    if (p <= 0)
        return false;
    return ::kill(static_cast<pid_t>(p), 0) == 0 || errno == EPERM;
}

void
sweepDeadTmps(const std::string &dir)
{
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return;
    std::vector<std::string> dead;
    while (struct dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (isTmpName(name) && !tmpWriterAlive(name))
            dead.push_back(dir + "/" + name);
    }
    ::closedir(d);
    for (const std::string &path : dead)
        ::unlink(path.c_str());
}

} // namespace rc
