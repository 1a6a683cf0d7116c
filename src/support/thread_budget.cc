#include "thread_budget.hh"

#include <algorithm>
#include <thread>

#include "logging.hh"

namespace hilp {

ThreadBudget::ThreadBudget(int total)
    : total_(total > 0
                 ? total
                 : static_cast<int>(std::max(
                       1u, std::thread::hardware_concurrency()))),
      available_(total_)
{}

ThreadBudget &
ThreadBudget::global()
{
    static ThreadBudget budget;
    return budget;
}

int
ThreadBudget::available() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return available_;
}

int
ThreadBudget::tryAcquire(int want)
{
    if (want <= 0)
        return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    int granted = std::min(want, available_);
    available_ -= granted;
    return granted;
}

void
ThreadBudget::acquire(int n)
{
    if (n <= 0)
        return;
    hilp_assert(n <= total_);
    std::unique_lock<std::mutex> lock(mutex_);
    freed_.wait(lock, [this, n] { return available_ >= n; });
    available_ -= n;
}

void
ThreadBudget::release(int n)
{
    if (n <= 0)
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        available_ += n;
        hilp_assert(available_ <= total_);
    }
    freed_.notify_all();
}

} // namespace hilp
