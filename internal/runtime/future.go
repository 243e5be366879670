package runtime

// Future represents an asynchronous one-sided operation in flight. Wait
// blocks until the operation has completed; on timed backends it also
// advances the waiter's modeled clock to the operation's completion time.
// Futures model the future objects returned by get_tile_async in Table 1
// of the paper.
type Future interface {
	// Wait blocks until the operation has completed. Safe to call from
	// multiple goroutines and more than once.
	Wait()
	// Done reports whether the operation has completed without blocking.
	Done() bool
}

// completedFuture is the shared already-done Future. Being a zero-size
// value it never allocates, which matters because the execution hot path
// creates one per fetch on backends that complete copies at issue time.
type completedFuture struct{}

func (completedFuture) Wait()      {}
func (completedFuture) Done() bool { return true }

// CompletedFuture returns a Future that is already done. It is used when a
// tile happens to be local and no communication is necessary — so the
// prefetch pipeline can treat local and remote tiles uniformly — and by
// backends whose asynchronous operations complete at issue time.
func CompletedFuture() Future { return completedFuture{} }
