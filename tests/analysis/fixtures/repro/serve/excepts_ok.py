"""REP007 negative fixture: specific catches, record-then-reraise, or
forwarding the caught exception to a future."""


class Overloaded(Exception):
    pass


def serve_one(backend, request, counters):
    try:
        return backend.serve(request)
    except Overloaded:  # specific type: fine
        counters["shed"] += 1
        raise


def observed(backend, request, counters):
    try:
        return backend.serve(request)
    except Exception:
        counters["errors"] += 1
        raise  # broad but re-raises after recording: fine


def forwarded(backend, request, future):
    try:
        future.set_result(backend.serve(request))
    except Exception as exc:
        future.set_exception(exc)  # the awaiter raises it: fine
