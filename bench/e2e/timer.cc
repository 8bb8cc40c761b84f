/**
 * @file
 * Process timer for the end-to-end benchmark (bench/e2e).
 *
 *   e2e_timer <timeout-s> <stdout-file> <program> [args...]
 *
 * Runs the program with its standard output in <stdout-file>, reaps
 * it with wait4 and prints one JSON line: exit status, wall seconds,
 * user + system seconds and peak resident set. A program still
 * running after <timeout-s> is killed and reported as timed out.
 *
 * Linux carries a process's peak-RSS mark across exec, so a program
 * spawned straight from the (much larger) benchmark script would
 * report the script's memory whenever its own peak is smaller. This
 * small parent keeps the reported peak the program's own.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace {

volatile sig_atomic_t timedOut = 0;
pid_t child = -1;

void
onAlarm(int)
{
    timedOut = 1;
    kill(child, SIGKILL);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 4) {
        std::fprintf(stderr, "usage: e2e_timer <timeout-s> <stdout-file> "
                             "<program> [args...]\n");
        return 2;
    }
    unsigned timeout = static_cast<unsigned>(std::atoi(argv[1]));
    int out = open(argv[2], O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out < 0) {
        std::perror(argv[2]);
        return 1;
    }

    auto t0 = std::chrono::steady_clock::now();
    child = fork();
    if (child < 0) {
        std::perror("fork");
        return 1;
    }
    if (child == 0) {
        dup2(out, STDOUT_FILENO);
        close(out);
        execvp(argv[3], argv + 3);
        std::perror(argv[3]);
        _exit(127);
    }
    close(out);

    struct sigaction sa = {};
    sa.sa_handler = onAlarm;
    sigaction(SIGALRM, &sa, nullptr);
    alarm(timeout);

    int status = 0;
    struct rusage ru = {};
    while (wait4(child, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    alarm(0);

    int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                 : -WTERMSIG(status);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    double cpu = seconds(ru.ru_utime) + seconds(ru.ru_stime);
    std::printf("{\"exit\":%d,\"timed_out\":%s,\"wall_s\":%.9f,"
                "\"cpu_s\":%.6f,\"maxrss_kb\":%ld}\n",
                code, timedOut ? "true" : "false", wall, cpu, ru.ru_maxrss);
    return 0;
}
