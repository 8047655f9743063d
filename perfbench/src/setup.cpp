/**
 * @file
 * Set-up timing: the repetition loop and the probe processes whose
 * repetitions setup_s pools.
 */
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

extern char** environ;

namespace perfbench {

namespace {

constexpr const char* kProbeTag = "setup-reps";

/** Run @p argv with its stdout piped back; returns that output. Throws
 *  unless the process exits 0. */
std::string
runProbe(std::vector<std::string> argv)
{
    int out[2];
    if (pipe(out) != 0)
        throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, out[0]);
    posix_spawn_file_actions_addclose(&fa, out[1]);
    std::vector<char*> args;
    for (auto& a : argv)
        args.push_back(a.data());
    args.push_back(nullptr);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, argv[0].c_str(), &fa, nullptr,
                               args.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(out[1]);
    std::string text;
    if (rc == 0) {
        char chunk[4096];
        ssize_t n;
        while ((n = read(out[0], chunk, sizeof(chunk))) > 0)
            text.append(chunk, static_cast<std::size_t>(n));
    }
    close(out[0]);
    int status = 0;
    if (rc != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        throw std::runtime_error("set-up probe " + argv[0] + " failed");
    return text;
}

} // namespace

bool
moreSetupReps(const RunContext& ctx, Clock::time_point t0, std::size_t reps)
{
    if (!ctx.setup_probe)
        return reps == 0;
    return reps < kMinProbeReps || secondsSince(t0) < kProbeSeconds;
}

bool
endSetupProbe(const RunContext& ctx, const std::vector<double>& reps)
{
    if (!ctx.setup_probe)
        return false;
    std::cout << kProbeTag;
    for (double r : reps)
        std::cout << " " << fullDigits(r);
    std::cout << std::endl;
    return true;
}

std::vector<double>
probeSetup(const RunContext& ctx)
{
    std::vector<double> reps;
    for (int p = 0; p < kSetupProbes; ++p) {
        std::istringstream is(runProbe(
            {ctx.exe_dir + "/perfbench", "--workload", ctx.workload,
             "--seed", std::to_string(ctx.seed), "--setup-probe", "1"}));
        std::string line;
        const std::size_t before = reps.size();
        while (std::getline(is, line)) {
            std::istringstream fields(line);
            std::string tag;
            if (!(fields >> tag) || tag != kProbeTag)
                continue;
            for (double r; fields >> r;)
                reps.push_back(r);
        }
        if (reps.size() == before)
            throw std::runtime_error("set-up probe printed no repetitions");
    }
    return reps;
}

} // namespace perfbench
