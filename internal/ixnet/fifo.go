package ixnet

// fifo is a queue that keeps its backing array across drains, so a push
// onto a warm queue does not allocate; pop clears the slot it leaves so
// the array pins nothing that has left the queue.
type fifo[T any] struct {
	q    []T
	head int
}

func (q *fifo[T]) len() int { return len(q.q) - q.head }
func (q *fifo[T]) push(v T) { q.q = append(q.q, v) }

func (q *fifo[T]) pop() T {
	var zero T
	v := q.q[q.head]
	q.q[q.head] = zero
	q.head++
	if q.head == len(q.q) {
		q.q, q.head = q.q[:0], 0
	}
	return v
}
