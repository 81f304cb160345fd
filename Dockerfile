# Build image for the real-process deployment binaries (tapboard,
# tapnode). Used by docker-compose.yml to run a five-node localhost
# overlay; see DESIGN.md §14.
FROM golang:1.24-alpine AS build
WORKDIR /src
COPY go.mod ./
COPY . .
RUN CGO_ENABLED=0 go build -o /out/tapboard ./cmd/tapboard \
 && CGO_ENABLED=0 go build -o /out/tapnode ./cmd/tapnode

FROM alpine:3.19
COPY --from=build /out/tapboard /out/tapnode /usr/local/bin/
# Default command is a relay node; compose overrides per service.
ENTRYPOINT ["tapnode"]
