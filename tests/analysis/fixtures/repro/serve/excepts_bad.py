"""REP007 positive fixture: swallowed exceptions on the serve path."""


def serve_one(backend, request):
    try:
        return backend.serve(request)
    except Exception:  # fires: broad catch without re-raise in serve/
        return None


def run_loop(step):
    try:
        step()
    except:  # noqa: E722 — fires REP007: bare except
        pass


def replaced(backend, request, future):
    try:
        future.set_result(backend.serve(request))
    except Exception:  # fires: the awaiter gets a different exception
        future.set_exception(RuntimeError())
