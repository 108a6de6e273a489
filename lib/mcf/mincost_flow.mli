(** Minimum-cost flow, the optimization substrate behind the paper's
    optimal balancing result: "the optimum balancing of a graph (using
    minimum number of buffer stages) is equivalent to the linear
    programming dual of the min-cost flow problem" (Section 8,
    conclusion 3).

    The solver is primal-dual successive shortest paths.  One label
    correcting pass from the source sets the initial node potentials to
    exact distances, so negative arc costs are accepted as long as the
    network has no negative cycle (a DAG-derived network never does).  A
    phase pushes blocking flows (BFS levels, DFS with current-arc
    pointers) along the zero-reduced-cost arcs until none leads to the
    sink; then one Dijkstra over the reduced costs lifts the potentials
    by its distances for the next phase.

    With [n] nodes and [m] arcs, the initial pass is O(nm) worst case;
    each phase is O(m log n) for Dijkstra plus O(nm) per blocking flow.
    Every phase strictly raises the cost of the cheapest source-to-sink
    path, so there are at most as many phases as distinct path costs, and
    never more than the total flow.  The network lives in flat int arrays,
    so a solve allocates only its O(n) work arrays. *)

type t

val create : int -> t
(** [create n] - an empty network on nodes [0 .. n-1]. *)

val node_count : t -> int

val add_arc : t -> src:int -> dst:int -> capacity:int -> cost:int -> int
(** Add a directed arc; returns an arc id for {!flow_on}.
    @raise Invalid_argument on bad endpoints or negative capacity. *)

type solution = { flow : int; cost : int }

val min_cost_max_flow : t -> source:int -> sink:int -> solution
(** Push the maximum flow from [source] to [sink] at minimum total cost.
    The network keeps the final flow assignment (query with {!flow_on});
    call on a fresh network for independent solves. *)

val flow_on : t -> int -> int
(** Flow currently assigned to an arc id. *)

val residual_shortest_distances : t -> root:int -> int array option
(** Shortest distances from [root] in the residual network of the
    current flow (forward arcs with remaining capacity at [cost], backward
    arcs of used flow at [-cost]).  Unreachable nodes get [max_int].
    [None] if a negative cycle exists (i.e., the flow is not optimal). *)

val potentials : t -> int array option
(** Shortest distances in the residual network started from distance 0
    at {e every} node ("virtual super-root"), by label correcting.  The
    result [pi] satisfies [pi.(y) <= pi.(x) + cost] for every residual arc
    [x -> y] — valid node potentials certifying optimality — and is the
    greatest such array [<= 0].  After an optimal solve it is therefore
    the greatest optimal dual [<= 0], which does not depend on which
    optimal flow the solver found.  [None] on a negative cycle. *)
